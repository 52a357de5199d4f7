"""Independent ground truth: dense diagonalization of the defected ring,
exact unitary evolution, eigenbasis-exact long-time averages, the
Bromwich-contour inverter of the Laplace-domain solution, and the
classical permeable-barrier walk used as the contrast baseline.

Everything here is deliberately brute force, except the classical walk's
Laplace route, which is the defect technique on the free walk's FFT frame.
The solver modules are validated against these routines, so nothing in
this file may share code with them beyond the lattice helpers and the
error types, and no solver module imports it.  Only time_average_exact,
the one reader of the degeneracy classes, raises DegeneracyAmbiguity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegeneracyAmbiguity, DuplicateDefectSite, NotConverged, PoleCountMismatch
from .lattice import LatticeSpec, periodic_distance, periodic_distances, site_index

DEG_TOL_FACTOR = 1e-9   # degeneracy tolerance, relative to the hopping scale
LEVEL_TOL = 1e-8        # check_defect_roots: root vs dense level, relative to 1 + |x|
RESIDUAL_TOL = 1e-12    # barrier_walk_steady: ||A P|| at the steady time, relative to F


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

    classes groups the eigenvalue indices closer than deg_tol, which scales
    with the largest off-diagonal |H| (the hopping, which sets the level
    spacing) and not with max|E|, which a strong defect inflates; a diagonal
    H falls back to max|E|, and classes set by symmetry (defect_decomposition)
    take 0.  The long-time average is discontinuous in the classes, so
    time_average_exact raises DegeneracyAmbiguity on a gap in (deg_tol, 10 deg_tol).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    classes: tuple[tuple[int, ...], ...]
    deg_tol: float = 0.0

    @classmethod
    def from_hamiltonian(cls, H: np.ndarray) -> "SpectralDecomposition":
        E, V = np.linalg.eigh(H)
        off = np.abs(H - np.diag(np.diag(H)))
        scale = off.max() if off.any() else (np.max(np.abs(E)) if E.size else 1.0)
        deg_tol = DEG_TOL_FACTOR * max(float(scale), 1e-300)
        starts = np.flatnonzero(np.diff(E) > deg_tol) + 1
        classes = tuple(tuple(c.tolist()) for c in np.split(np.arange(E.size), starts))
        return cls(E, V, classes, deg_tol)


def evolve_exact(decomp: SpectralDecomposition, n0: int, t: float) -> np.ndarray:
    """State at time t for the particle started on site n0: sum_a e^{-i E_a t} v_a <v_a|n0>;
    ValueError where a phase E_a t is not finite (its cos and sin would be NaN)."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(t) and np.isfinite(decomp.eigenvalues * t).all()
    if not finite:
        raise ValueError(f"time must be finite, as must the phase E t, got {t}")
    c = decomp.eigenvectors[n0, :]
    phase = np.exp(-1j * decomp.eigenvalues * t)
    return decomp.eigenvectors @ (phase * c)


def occupation_exact(decomp: SpectralDecomposition, n0: int, t: float) -> np.ndarray:
    psi = evolve_exact(decomp, n0, t)
    return np.abs(psi) ** 2


def time_average_exact(decomp: SpectralDecomposition, n0: int) -> np.ndarray:
    """Long-time average of the site occupation, exact in the eigenbasis.

    Only pairs inside one degeneracy class survive the average:
    Pbar_n = sum_C (sum_{a in C} v_a(n) v_a(n0))^2.  A gap inside the
    unreliable band (deg_tol, 10 deg_tol) raises DegeneracyAmbiguity.
    """
    gaps, tol = np.diff(decomp.eigenvalues), decomp.deg_tol
    if np.any(ambiguous := (gaps > tol) & (gaps < 10.0 * tol)):
        raise DegeneracyAmbiguity(f"eigenvalue gap(s) {gaps[ambiguous]} inside the unreliable "
                                  f"band ({tol:.3e}, {10 * tol:.3e})")
    V = decomp.eigenvectors
    c = V[n0, :]
    out = np.zeros(V.shape[0])
    for cls_idx in decomp.classes:
        idx = list(cls_idx)
        block = V[:, idx] @ c[idx]
        out += block * block
    return out


def defect_decomposition(spec: LatticeSpec, nd: int, q: float) -> SpectralDecomposition:
    """The ring with one defect of strength q on site nd, diagonalized in
    the two reflection sectors about nd: the tridiagonal blocks of H in the
    bases |nd + m> + |nd - m> (m = 0..N//2, the first N//2 + 1 levels) and
    |nd + m> - |nd - m> (0 < m < N/2), lifted to all N sites.  No sector
    holds a degenerate pair, and for q != 0 no even level is an odd one, so
    each level is its own class and levels split by ~q/N keep their digits
    (the full ring's eigh loses eps |q| in each).  For q = 0 even and odd
    level k, 0 < k < N/2, coincide and share a class."""
    N = spec.N
    nd = site_index(nd, N)
    H = build_hamiltonian(spec, [(nd, q)])
    values, vectors = [], []
    for sign, m in ((1.0, np.arange(N // 2 + 1)), (-1.0, np.arange(1, (N - 1) // 2 + 1))):
        U = (np.eye(N)[(nd + m) % N] + sign * np.eye(N)[(nd - m) % N]).T
        U /= np.linalg.norm(U, axis=0)
        T = U.T @ H @ U
        sector = SpectralDecomposition.from_hamiltonian(T)
        E, Y = sector.eigenvalues, sector.eigenvectors
        # eigh errs by eps |q| and mixes the band's levels, whose subspace lies
        # ~|q| from the bound state's: they are diagonalized again inside it
        band = np.abs(E) <= 4.0 * spec.gamma
        E[band], Z = np.linalg.eigh(Y[:, band].T @ T @ Y[:, band])
        Y[:, band] = Y[:, band] @ Z
        values.append(E)
        vectors.append(U @ Y)
    classes = ([(a,) for a in range(N)] if q != 0.0 else
               [(k,) + ((N // 2 + k,) if 0 < k <= (N - 1) // 2 else ()) for k in range(N // 2 + 1)])
    return SpectralDecomposition(np.concatenate(values), np.hstack(vectors), tuple(classes))


def check_defect_roots(system, dec: SpectralDecomposition) -> None:
    """PoleCountMismatch unless the roots x of a one-defect system match, one to
    one, the even levels of its defect_decomposition `dec` within LEVEL_TOL
    (1 + |x|) plus the dense solver's rounding; no live defect, no roots."""
    if not system.live:
        return
    (defect,), spec = system.live, system.spec
    N, s = spec.N, defect.q / (2.0 * spec.gamma)
    dense = dec.eigenvalues[N // 2::-1] / (-2.0 * spec.gamma)
    tol = LEVEL_TOL * (1.0 + np.abs(dense)) + N * np.finfo(float).eps * (1.0 + abs(s))
    if np.any(np.abs(system.x - dense) > tol):
        raise PoleCountMismatch("roots disagree with the dense even sector "
                                f"(worst {np.max(np.abs(system.x - dense)):.3g})")


def ring_green(d, x, N: int):
    """Free ring Green function g(d; x) = (1/N) sum_k cos(2 pi k d / N) / (x - c_k)
    off the real band, in the overflow-free form

        g = (z^d + z^(N-d)) / ((1 - z^N) w),  w = sqrt(x - 1) sqrt(x + 1),  z = x - w,

    where |z| < 1; d and x broadcast, d in [0, N]."""
    x = np.asarray(x, dtype=complex)
    w = np.sqrt(x - 1.0) * np.sqrt(x + 1.0)
    z = 1.0 / (x + w)
    return (z ** d + z ** (N - d)) / ((1.0 - z ** N) * w)


def green_laplace(spec: LatticeSpec, a: int, b: int, eps):
    """Laplace-domain free propagator between sites a and b,
    G(a, b, eps) = g(d; x) / (2 i gamma) with x = eps / (2 i gamma) and d the
    ring distance between a and b (see ring_green)."""
    x = np.asarray(eps) / (2j * spec.gamma)
    return ring_green(periodic_distance(a, b, spec.N), x, spec.N) / (2j * spec.gamma)


def bromwich_occupation(spec: LatticeSpec, defects: Sequence[tuple[int, float]], t: float) -> np.ndarray:
    """Site probabilities at time t for defects given as (site, strength)
    pairs: the free ring's exact evolution plus the defect correction psi - G
    (decaying like 1/s^2), inverted by the trapezoid rule on Re s = gamma / 2,
    |Im s| <= 600 gamma + 20 max|q|; NotConverged on a non-finite profile."""
    N, gamma = spec.N, spec.gamma
    sites, q = [site_index(nd, N) for nd, _ in defects], np.array([v for _, v in defects], dtype=float)
    omega_max = 600.0 * gamma + 20.0 * np.abs(q).max()
    omega = np.linspace(-omega_max, omega_max, 2 * int(omega_max / min(0.05, 0.5 / max(t, 1e-9)) / 2) + 1)
    s = 0.5 * gamma + 1j * omega
    ring = np.array([periodic_distances(N, nd) for nd in sites])
    G = ring_green(np.arange(N // 2 + 1), s[:, None] / (2j * gamma), N) / (2j * gamma)
    psi_d = np.linalg.solve(np.eye(q.size) - 1j * q * G[:, ring[:, sites]],
                            G[:, ring[:, spec.n0], None])[..., 0]
    coef = np.exp(s * t)[:, None] * 1j * q * psi_d / (2.0 * np.pi)
    free = evolve_exact(SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec)), spec.n0, t)
    psi = free + sum(np.trapezoid(coef[:, a, None] * G, omega, axis=0)[ring[a]] for a in range(q.size))
    P = psi.real ** 2 + psi.imag ** 2
    if not np.all(np.isfinite(P)):
        raise NotConverged(f"Bromwich inversion gave a non-finite profile at t={t}")
    return P


# ---------------------------------------------------------------------------
# Classical continuous-time walk with one partially permeable barrier.
# ---------------------------------------------------------------------------

def _relaxation_time(N: int, F: float) -> float:
    """t_relax = 1 / (2 F (1 - cos(pi / N))), the barrier walk's time unit: the
    generator is the open chain's (bond r cut, rate F elsewhere) plus the PSD
    f (e_r - e_{r+1})(e_r - e_{r+1})^T, so for every 0 < f <= F its slowest
    nonzero rate is at least the open chain's 1 / t_relax."""
    with np.errstate(divide="ignore", over="ignore"):
        return float(1.0 / (2.0 * F * (1.0 - np.cos(np.pi / N))))


@dataclass(frozen=True)
class BarrierWalkSpec:
    """Ring walk at bulk rate F with a weakened bond (rate f <= F) between
    sites r and r+1; the walker starts on site n0.  F and f become floats;
    ValueError unless 0 < f <= F and 2F and t_relax are finite, so any
    positive, representable f is a barrier."""

    N: int
    F: float
    f: float
    r: int = 0
    n0: int = 0

    def __post_init__(self):
        if self.N < 3:
            raise ValueError("N must be >= 3")
        F, f = float(self.F), float(self.f)
        if not (0 < f <= F and np.isfinite(2.0 * F) and np.isfinite(_relaxation_time(self.N, F))):
            raise ValueError(f"need 0 < f <= F with 2F and t_relax finite, got f={f}, F={F}")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "r", site_index(self.r, self.N))
        object.__setattr__(self, "n0", site_index(self.n0, self.N))


def barrier_rate_matrix(bspec: BarrierWalkSpec) -> np.ndarray:
    """Symmetric generator of the master equation dP/dt = A P."""
    N = bspec.N
    rate = np.full(N, bspec.F)
    rate[bspec.r] = bspec.f          # bond (r, r+1)
    n = np.arange(N)
    A = np.zeros((N, N))
    A[n, (n + 1) % N] = A[(n + 1) % N, n] = rate
    A[n, n] = -(rate + np.roll(rate, 1))
    return A


def _barrier_propagator(bspec: BarrierWalkSpec, A: np.ndarray):
    """t -> P(n, t) for the generator A of the walk, diagonalized once (t in
    the units A's rates are in)."""
    lam, V = np.linalg.eigh(A)
    lam[-1] = 0.0   # probability is conserved; eigh's rounding here grows with t
    p0 = np.zeros(bspec.N)
    p0[bspec.n0] = 1.0
    c = V.T @ p0
    return lambda t: V @ (np.exp(lam * t) * c)


def barrier_walk_propagate(bspec: BarrierWalkSpec, times: np.ndarray) -> np.ndarray:
    """Occupation profiles P(n, t) at the requested times (rows), propagated
    in units of F (generator A / F at times F t)."""
    propagate = _barrier_propagator(bspec, barrier_rate_matrix(bspec) / bspec.F)
    return np.array([propagate(bspec.F * t) for t in np.atleast_1d(np.asarray(times, dtype=float))])


def _barrier_profile_laplace(bspec: BarrierWalkSpec, eps: float) -> np.ndarray:
    """Exact Laplace-domain solution of the barrier walk at eps, in units of
    F: bulk rate 1, barrier f / F (vector over n).  The free ring's
    propagator is Psi_0(m, eps) = 1 / (N eps) + rest[m], rest one inverse
    real FFT over the nonzero modes; the barrier is a rank-one correction
    on rotations of rest, and the pole, which cancels in every difference,
    is added last."""
    N, r, n0 = bspec.N, bspec.r, bspec.n0
    g = 1.0 / (eps + 4.0 * np.sin(np.pi * np.arange(N // 2 + 1) / N) ** 2)
    g[0] = 0.0
    rest = np.fft.irfft(g, N)
    profile = np.roll(rest, n0)
    delta = 1.0 - bspec.f / bspec.F
    if delta != 0.0:
        num = profile[(r + 1) % N] - profile[r]
        den = 1.0 / delta + 2.0 * (rest[1] - rest[0])
        profile -= (np.roll(rest, r) - np.roll(rest, r + 1)) * (num / den)
    return 1.0 / (N * eps) + profile


@dataclass(frozen=True)
class BarrierWalkResult:
    msd_time_integrated: float
    msd_laplace: float
    profile: np.ndarray
    time_reached: float


def barrier_walk_steady(bspec: BarrierWalkSpec) -> BarrierWalkResult:
    """Steady mean-square displacement of the barrier walk by two routes.

    Both routes run in units of F, on the generator A / F (bulk rate 1,
    barrier f / F) at times F t and Laplace variables eps / F, so no rate,
    time or 1 / eps depends on the scale of F.  Route one propagates the
    master equation once (exact eigenbasis, the conserved mode's rate
    exactly 0) to F t = ln(1 / RESIDUAL_TOL) F t_relax, where every other
    mode has decayed by RESIDUAL_TOL; NotConverged unless there
    ||A P|| < RESIDUAL_TOL F and the profile sums to 1 within 1e-8.  Route
    two takes the Laplace-domain solution (the free ring's FFT frame plus
    the barrier's rank-one correction) to eps = 0 by the final value
    theorem, Richardson-extrapolated from eps0 = 1e-4 / t_relax so that its
    error does not grow with N; NotConverged if not finite.  The steady
    profile is uniform, so both MSDs equal sum_n [n-n0]^2 / N for every
    barrier strength -- the point of the baseline -- within 1e-10 relative
    (the Laplace route within 1e-13) up to N = 2000, for every F the spec
    accepts.  `time_reached` is t in the units of 1 / F (inf where t_relax
    is within a factor ln(1 / RESIDUAL_TOL) of overflowing).
    """
    F = bspec.F
    A = barrier_rate_matrix(bspec) / F
    t = np.log(1.0 / RESIDUAL_TOL) * _relaxation_time(bspec.N, 1.0)      # F t
    profile = _barrier_propagator(bspec, A)(t)
    with np.errstate(over="ignore"):
        time_reached = t / F
    if not np.linalg.norm(A @ profile) < RESIDUAL_TOL:
        raise NotConverged(f"residual above {RESIDUAL_TOL} F at t={time_reached}")
    if not abs(profile.sum() - 1.0) <= 1e-8:
        raise NotConverged(f"profile at t={time_reached} sums to {profile.sum()}")
    d2 = periodic_distances(bspec.N, bspec.n0).astype(float) ** 2
    msd_time = float(d2 @ profile)

    # final value theorem, Richardson-extrapolated to kill the O(eps), O(eps^2) bias
    eps0 = 1e-4 / _relaxation_time(bspec.N, 1.0)
    s = [float(d2 @ (e * _barrier_profile_laplace(bspec, e))) for e in (eps0, 0.5 * eps0, 0.25 * eps0)]
    msd_laplace = (8.0 * s[2] - 6.0 * s[1] + s[0]) / 3.0
    if not np.isfinite(msd_laplace):
        raise NotConverged(f"Laplace route not finite from eps0={eps0 * F}")

    return BarrierWalkResult(msd_time, msd_laplace, profile, time_reached)
