"""Solver configuration shared by graph construction, the solver and the driver.

A SolverConfig is immutable and checks its values when it is made.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ConfigError


def _integer(least):
    """Test that a value is an integer no less than least."""
    return lambda v: int(v) == v >= least


# each field, what it must be and its test; a test that raises, as for NaN,
# inf, a string or None, fails
_RULES = {
    "k": ("be a positive integer", _integer(1)),
    "p": ("be a nonnegative integer", _integer(0)),
    "r": ("be a positive integer", _integer(1)),
    "sigma": ('be positive or "auto"',
              lambda s: s == "auto" if isinstance(s, str) else s > 0.0),
    "tau": ("lie in (0, 1]", lambda t: 0.0 < t <= 1.0),
    "eps": ("be positive", lambda e: e > 0.0),
    "max_iter": ("be a positive integer", _integer(1)),
    "cumulative_active": ("be True or False", lambda b: b is True or b is False),
    "threads": ("be a positive integer", lambda t: t is None or _integer(1)(t)),
}


def check(name: str, value):
    """Raise ConfigError unless value passes the rule of the SolverConfig field name."""
    rule, ok = _RULES[name]
    try:
        if ok(value):
            return
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must {rule}, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the nonlocal graph and of the explicit Euler solve.

    k:        neighbors kept per target vertex.
    p:        patch radius; patches are (2p+1) x (2p+1), periodic wrap.
    r:        search window radius; candidates come from a (2r+1) x (2r+1)
              window around the target, periodic wrap.
    sigma:    weight scale in w = exp(-(d^2 - d1^2) / sigma^2), d1 the nearest
              distance; "auto" means the mean selected finite patch distance.
    tau:      Euler step size, 0 < tau <= 1.
    eps:      relative-change stopping threshold.
    max_iter: iteration cap per solve.
    cumulative_active: keep earlier layers active in later solves instead of
              freezing them.
    threads:  worker cap for graph construction, capped at the CPUs this
              process may run on; None means that count.

    Raises ConfigError naming the first invalid value.
    """

    k: int = 25
    p: int = 12
    r: int = 32
    sigma: float | str = "auto"
    tau: float = 0.1
    eps: float = 1e-7
    max_iter: int = 1000
    cumulative_active: bool = False
    threads: int | None = None

    def __post_init__(self):
        for name in _RULES:
            check(name, getattr(self, name))

    def resolved_threads(self) -> int:
        if hasattr(os, "process_cpu_count"):        # Python 3.13 on
            cpus = os.process_cpu_count() or 1
        elif hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        return cpus if self.threads is None else min(int(self.threads), cpus)
