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
    "eps": ("be positive", lambda e: e > 0.0),
    "max_iter": ("be a positive integer", _integer(1)),
    "coupled_pass": ("be True or False", lambda b: b is True or b is False),
    "threads": ("be a positive integer", lambda t: t is None or _integer(1)(t)),
}


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the nonlocal graph and of the explicit Euler solve.

    k:        neighbors kept per target vertex.
    p:        patch radius; patches are (2p+1) x (2p+1), periodic wrap.
    r:        search window radius; candidates come from a (2r+1) x (2r+1)
              window around the target, periodic wrap.
    sigma:    weight scale in w = exp(-(d^2 - d1^2) / sigma^2), d1 the nearest
              distance; "auto" means the mean selected finite patch distance.
    eps:      relative-change stopping threshold of the coupled pass.
    max_iter: Euler step cap of the coupled pass.
    coupled_pass: after the front layers, solve every unknown pixel again in
              one coupled pass, its graph built over the whole filled image.
    threads:  worker cap for graph construction, capped at the CPUs this
              process may run on; None means that count.

    Raises ConfigError naming the first invalid value.
    """

    k: int = 25
    p: int = 12
    r: int = 32
    sigma: float | str = "auto"
    eps: float = 1e-7
    max_iter: int = 1000
    coupled_pass: bool = False
    threads: int | None = None

    def __post_init__(self):
        for name, (rule, ok) in _RULES.items():
            value = getattr(self, name)
            try:
                if ok(value):
                    continue
            except (TypeError, ValueError, OverflowError):
                pass
            raise ConfigError(f"{name} must {rule}, got {value!r}")

    def resolved_threads(self) -> int:
        if hasattr(os, "process_cpu_count"):        # Python 3.13 on
            cpus = os.process_cpu_count() or 1
        elif hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        return cpus if self.threads is None else min(int(self.threads), cpus)
