"""Solver configuration shared by graph construction, the solver and the driver.

A SolverConfig is immutable and checks its values when it is made.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the nonlocal graph and of the explicit Euler solve.

    k:        neighbors kept per target vertex.
    p:        patch radius; patches are (2p+1) x (2p+1), periodic wrap.
    r:        search window radius; candidates come from a (2r+1) x (2r+1)
              window around the target, periodic wrap.
    sigma:    weight scale in w = exp(-d^2 / sigma^2); "auto" means the mean
              of the selected finite patch distances of the image.
    tau:      Euler step size, 0 < tau <= 1.
    eps:      relative-change stopping threshold.
    max_iter: iteration cap per solve.
    cumulative_active: keep earlier layers active in later solves instead of
              freezing them.
    threads:  worker cap for graph construction, capped at the CPU count;
              None means the CPU count.

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
        if int(self.k) != self.k or self.k < 1:
            raise ConfigError(f"k must be a positive integer, got {self.k}")
        if int(self.p) != self.p or self.p < 0:
            raise ConfigError(f"p must be a nonnegative integer, got {self.p}")
        if int(self.r) != self.r or self.r < 1:
            raise ConfigError(f"r must be a positive integer, got {self.r}")
        if isinstance(self.sigma, str):
            if self.sigma != "auto":
                raise ConfigError(f'sigma must be positive or "auto", got {self.sigma!r}')
        elif not (self.sigma > 0.0):
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if not (0.0 < self.tau <= 1.0):
            raise ConfigError(f"tau must lie in (0, 1], got {self.tau}")
        if not (self.eps > 0.0):
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if int(self.max_iter) != self.max_iter or self.max_iter < 1:
            raise ConfigError(f"max_iter must be a positive integer, got {self.max_iter}")
        if self.threads is not None and (int(self.threads) != self.threads or self.threads < 1):
            raise ConfigError(f"threads must be a positive integer, got {self.threads}")

    def resolved_threads(self) -> int:
        cpus = max(1, os.cpu_count() or 1)
        if self.threads is not None:
            return min(int(self.threads), cpus)
        return cpus
