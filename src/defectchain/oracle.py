"""Independent ground truth: dense diagonalization of the defected ring,
exact unitary evolution, eigenbasis-exact long-time averages, and the
classical permeable-barrier walk used as the contrast baseline.

Everything here is deliberately brute force.  The analytic modules are
validated against these routines, so nothing in this file may share code
with them beyond the lattice helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegeneracyAmbiguity, DuplicateDefectSite, NotConverged
from .lattice import LatticeSpec, periodic_distances, site_index


def build_hamiltonian(spec: LatticeSpec, defects: Sequence[tuple[int, float]] = ()) -> np.ndarray:
    """Dense ring Hamiltonian: -gamma on all N ring bonds, -q_k on defect sites.

    defects is a sequence of (site, strength) pairs with distinct sites.
    """
    N, gamma = spec.N, spec.gamma
    H = np.zeros((N, N))
    idx = np.arange(N)
    H[idx, (idx + 1) % N] = -gamma
    H[(idx + 1) % N, idx] = -gamma
    seen = set()
    for nd, q in defects:
        nd = site_index(nd, N)
        if nd in seen:
            raise DuplicateDefectSite(f"two defects on site {nd}")
        seen.add(nd)
        H[nd, nd] -= q
    return H


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-decomposition of a real symmetric Hamiltonian with degeneracy classes.

    classes partitions the eigenvalue indices into groups closer than
    deg_tol; the long-time average is discontinuous in this structure, so
    gaps inside (deg_tol, 10 deg_tol) raise DegeneracyAmbiguity instead of
    being classified silently.  deg_tol scales with the largest off-diagonal
    |H| (the hopping, which sets the level spacing) and not with max|E|,
    which a strong defect inflates; a diagonal H falls back to max|E|.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    classes: tuple[tuple[int, ...], ...]
    deg_tol: float

    @classmethod
    def from_hamiltonian(cls, H: np.ndarray, deg_tol_factor: float = 1e-9) -> "SpectralDecomposition":
        E, V = np.linalg.eigh(H)
        off = np.abs(H - np.diag(np.diag(H)))
        scale = off.max() if off.any() else (np.max(np.abs(E)) if E.size else 1.0)
        deg_tol = deg_tol_factor * max(float(scale), 1e-300)
        gaps = np.diff(E)
        ambiguous = (gaps > deg_tol) & (gaps < 10.0 * deg_tol)
        if np.any(ambiguous):
            raise DegeneracyAmbiguity(
                f"eigenvalue gap(s) {gaps[ambiguous]} inside the unreliable band "
                f"({deg_tol:.3e}, {10 * deg_tol:.3e})")
        classes = []
        current = [0]
        for i, g in enumerate(gaps):
            if g <= deg_tol:
                current.append(i + 1)
            else:
                classes.append(tuple(current))
                current = [i + 1]
        classes.append(tuple(current))
        return cls(E, V, tuple(classes), deg_tol)


def evolve_exact(decomp: SpectralDecomposition, n0: int, t: float) -> np.ndarray:
    """State at time t for the particle started on site n0: sum_a e^{-i E_a t} v_a <v_a|n0>."""
    c = decomp.eigenvectors[n0, :]
    phase = np.exp(-1j * decomp.eigenvalues * t)
    return decomp.eigenvectors @ (phase * c)


def occupation_exact(decomp: SpectralDecomposition, n0: int, t: float) -> np.ndarray:
    psi = evolve_exact(decomp, n0, t)
    return np.abs(psi) ** 2


def time_average_exact(decomp: SpectralDecomposition, n0: int) -> np.ndarray:
    """Long-time average of the site occupation, exact in the eigenbasis.

    Only pairs inside one degeneracy class survive the average:
    Pbar_n = sum_C (sum_{a in C} v_a(n) v_a(n0))^2.
    """
    V = decomp.eigenvectors
    c = V[n0, :]
    out = np.zeros(V.shape[0])
    for cls_idx in decomp.classes:
        idx = list(cls_idx)
        block = V[:, idx] @ c[idx]
        out += block * block
    return out


def defect_levels(spec: LatticeSpec, nd: int, q: float) -> np.ndarray:
    """Every level of the ring with one defect, as x = -E/(2 gamma), ascending:
    the roots of the defect's secular equation together with the free levels
    whose modes vanish on the defect site."""
    return np.sort(np.linalg.eigvalsh(build_hamiltonian(spec, [(nd, q)])) / (-2.0 * spec.gamma))


# ---------------------------------------------------------------------------
# Classical continuous-time walk with one partially permeable barrier.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BarrierWalkSpec:
    """Ring walk at bulk rate F with a weakened bond (rate f < F) between
    sites r and r+1; the walker starts on site n0."""

    N: int
    F: float
    f: float
    r: int = 0
    n0: int = 0

    def __post_init__(self):
        if self.N < 3:
            raise ValueError("N must be >= 3")
        if not (0 < self.f <= self.F):
            raise ValueError(f"need 0 < f <= F, got f={self.f}, F={self.F}")
        object.__setattr__(self, "r", site_index(self.r, self.N))
        object.__setattr__(self, "n0", site_index(self.n0, self.N))


def barrier_rate_matrix(bspec: BarrierWalkSpec) -> np.ndarray:
    """Symmetric generator of the master equation dP/dt = A P."""
    N = bspec.N
    rate = np.full(N, bspec.F)
    rate[bspec.r] = bspec.f          # bond (r, r+1)
    A = np.zeros((N, N))
    for n in range(N):
        m = (n + 1) % N
        A[n, m] += rate[n]
        A[m, n] += rate[n]
        A[n, n] -= rate[n]
        A[m, m] -= rate[n]
    return A


def barrier_walk_propagate(bspec: BarrierWalkSpec, times: np.ndarray) -> np.ndarray:
    """Occupation profiles P(n, t) at the requested times (rows)."""
    A = barrier_rate_matrix(bspec)
    lam, V = np.linalg.eigh(A)
    p0 = np.zeros(bspec.N)
    p0[bspec.n0] = 1.0
    c = V.T @ p0
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return np.array([V @ (np.exp(lam * t) * c) for t in times])


def _barrier_psi_laplace(bspec: BarrierWalkSpec, n, n0, eps: float):
    """Free-walk Laplace propagator Psi_{n0}(n, eps) on the ring (vector over n)."""
    N, F = bspec.N, bspec.F
    n = np.atleast_1d(np.asarray(n))
    k = np.arange(1, N)
    den = eps + 2.0 * F * (1.0 - np.cos(2.0 * np.pi * k / N))
    cosfac = np.cos(2.0 * np.pi * np.outer(n - n0, k) / N)
    return 1.0 / (N * eps) + (cosfac / den).sum(axis=1) / N


def _barrier_profile_laplace(bspec: BarrierWalkSpec, eps: float) -> np.ndarray:
    """Exact Laplace-domain solution of the barrier walk at eps (vector over n)."""
    N, r, n0 = bspec.N, bspec.r, bspec.n0
    delta = bspec.F - bspec.f
    nall = np.arange(N)
    psi_free = _barrier_psi_laplace(bspec, nall, n0, eps)
    if delta == 0.0:
        return psi_free
    from_r = _barrier_psi_laplace(bspec, nall, r, eps)
    from_r1 = _barrier_psi_laplace(bspec, nall, (r + 1) % N, eps)
    num = psi_free[(r + 1) % N] - psi_free[r]
    den = (1.0 / delta + from_r1[r] + from_r[(r + 1) % N]
           - from_r1[(r + 1) % N] - from_r[r])
    return psi_free - (from_r - from_r1) * (num / den)


@dataclass(frozen=True)
class BarrierWalkResult:
    msd_time_integrated: float
    msd_laplace: float
    profile: np.ndarray
    time_reached: float


def barrier_walk_steady(bspec: BarrierWalkSpec, *, residual_tol: float = 1e-12,
                        time_cap_factor: float = 50.0) -> BarrierWalkResult:
    """Steady mean-square displacement of the barrier walk by two routes.

    Route one integrates the master equation (exact eigenbasis propagation)
    until the residual ||A P|| drops below residual_tol.  Route two
    evaluates the Laplace-domain defect solution near eps = 0 via the final
    value theorem (Richardson-extrapolated in eps).  The steady profile is
    uniform, so both MSDs equal sum_n [n-n0]^2 / N for every barrier
    strength -- which is the point of the baseline.
    """
    N = bspec.N
    A = barrier_rate_matrix(bspec)
    # slowest relaxation rate ~ 2F(1 - cos(2 pi / N)); cap a generous multiple
    t_relax = 1.0 / (2.0 * bspec.f * (1.0 - np.cos(2.0 * np.pi / N)))
    t_cap = time_cap_factor * t_relax
    d2 = periodic_distances(N, bspec.n0).astype(float) ** 2

    t = t_relax
    profile = None
    while t <= t_cap * (1.0 + 1e-9):
        profile = barrier_walk_propagate(bspec, np.array([t]))[0]
        if np.linalg.norm(A @ profile) < residual_tol:
            break
        t *= 2.0
    else:
        raise NotConverged(f"residual above {residual_tol} at the time cap {t_cap}")
    msd_time = float(d2 @ profile)

    # final value theorem, Richardson-extrapolated to kill the O(eps), O(eps^2) bias
    eps0 = 1e-6 * bspec.F
    s = [float(d2 @ (e * _barrier_profile_laplace(bspec, e)))
         for e in (eps0, 0.5 * eps0, 0.25 * eps0)]
    msd_laplace = (8.0 * s[2] - 6.0 * s[1] + s[0]) / 3.0

    return BarrierWalkResult(msd_time, msd_laplace, profile, t)
