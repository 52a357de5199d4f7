"""Ring geometry: site arithmetic and the periodic distance metric that
feeds every moment computation.

All site labels are reduced modulo N at entry, so downstream formulas never
see an unreduced index.  The periodic distance [a - b] = min(|a-b|, N-|a-b|)
is the displacement measure used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic tight-binding chain: N sites, finite hopping gamma > 0, start site n0."""

    N: int
    gamma: float = 1.0
    n0: int = 0

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 3:
            raise ValueError(f"N must be an integer >= 3, got {self.N}")
        if not (self.gamma > 0 and np.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "n0", int(self.n0) % self.N)


def site_index(n: int, N: int) -> int:
    """Reduce a site label modulo N into [0, N)."""
    return int(n) % int(N)


def periodic_distance(a: int, b: int, N: int) -> int:
    """Minimum ring distance min(|a-b|, N-|a-b|).

    Symmetric in (a, b) and invariant under a common shift of both sites.
    """
    d = (int(a) - int(b)) % int(N)
    return min(d, N - d)


def periodic_distances(N: int, origin: int = 0) -> np.ndarray:
    """Ring distances [n - origin] for every site n = 0..N-1."""
    d = (np.arange(N) - int(origin)) % N
    return np.minimum(d, N - d)

