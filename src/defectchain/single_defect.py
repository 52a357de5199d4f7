"""Finite-strength single defect in eigenvector form: the response series
Phi(t), time-resolved and steady occupations, and the defected moments.

Reflection through the defect site nd commutes with the defected ring, so
every level is even or odd about nd.  An odd mode vanishes on nd and keeps
its free level c_k (0 < k < N/2).  The N//2 + 1 even levels are the roots
x_j of 1 = s g(0; x) (spectral.find_poles), with the rank-one-update
eigenvectors v_j(n) = g(n - nd; x_j) / ||g(.; x_j)|| (Bunch, Nielsen &
Sorensen 1978).  Each row g(.; x_j) is one inverse real FFT of 1 / (x_j - c_k),
the gaps taken as (c_L - c_k) + delta_j from the level L the root was solved
from and its exact offset delta_j, so a root within rounding of its level
keeps its digits.  With the weight rows W_jn = v_j(n) v_j(n0),

    psi(n, t) = sum_j exp(2 i gamma x_j t) W_jn + (G(n, n0, t) - G(n, 2 nd - n0, t)) / 2,

the second term being the odd part of the free propagator: a block of times
costs one cos and one sin matrix product (eigen_amplitudes) and one FFT.

No sector holds a degenerate pair, so the time average keeps the square of
each level's amplitude.  Split as the free steady profile plus corrections,

    Kbar_n = sum_j W_jn^2 + sum_k e_k(n)^2,   Ibar_n = -2 sum_k e_k(n) (e_k(n) + o_k(n)),

with e_k and o_k the even and odd parts about nd of the free level-k
propagator; the level sums are closed forms (steady_sums) and Ibar does
not depend on q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NormalizationDrift, PoleCountMismatch
from .homogeneous import (SiteProfile, distance_powers, green_profile,
                          green_profiles, steady_moment, steady_profile,
                          time_blocks)
from .lattice import LatticeSpec, periodic_distance, site_index
from .spectral import PoleSet, find_poles

NORM_TOL = 1e-8
LEVEL_TOL = 1e-8        # validate: root vs dense level, relative to 1 + |x|


def _check_normalized(totals, what: str, times=None) -> None:
    """Raise NormalizationDrift unless every total is finite and within
    NORM_TOL of 1; `times` labels the offending row of a series."""
    totals = np.atleast_1d(totals)
    bad = np.nonzero(~(np.abs(totals - 1.0) <= NORM_TOL))[0]
    if bad.size:
        where = "" if times is None else f" at t={times[bad[0]]}"
        raise NormalizationDrift(f"{what} sums to {totals[bad[0]]}{where}")


@dataclass(frozen=True)
class DefectSpec:
    """One on-site defect: site nd, signed strength q (energy units).

    q = 0 reduces every quantity to its defect-free counterpart; positive q
    matches the attractive sign convention used for all figures here.
    """

    nd: int
    q: float


@dataclass(frozen=True)
class PhiSeries:
    """Defect response Phi(t) = sum_j w_j exp(2 i gamma x_j t), w_j = i q W_j,nd."""

    x: np.ndarray
    weights: np.ndarray
    gamma: float

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        ph = np.exp(2j * self.gamma * np.multiply.outer(t, self.x))
        out = ph @ self.weights
        return out if out.ndim else out[()]


@dataclass(frozen=True)
class DefectSystem:
    """One (lattice, defect) pair in spectral form: the even levels x_j
    (x = -E / 2 gamma) and the weight rows W_jn = v_j(n) v_j(n0) of their
    eigenvectors, fields named as in multi_defect.MultiDefectSystem."""

    spec: LatticeSpec
    defect: DefectSpec
    poles: PoleSet
    x: np.ndarray            # all N//2 + 1 roots, ascending
    weights: np.ndarray      # shape (N//2 + 1, N)

    @cached_property
    def _steady(self) -> tuple[np.ndarray, np.ndarray]:
        """steady_corrections(self), computed once per system and shared
        (read-only) by the steady profile and moments."""
        Ibar, Kbar = steady_corrections(self)
        Ibar.flags.writeable = Kbar.flags.writeable = False
        return Ibar, Kbar


def _gap_table(level: np.ndarray, offset: np.ndarray, N: int) -> np.ndarray:
    """x_j - c_k for x_j = c_L + offset_j and every level k <= N/2, shape
    (J, N//2 + 1), with c_L - c_k = -2 sin(pi (L + k)/N) sin(pi (L - k)/N)
    read from one table of sines: every gap keeps its relative accuracy and
    the own level's gap is the offset itself."""
    K = N // 2
    m = np.arange(-K, N + 1)
    sines = np.sin(np.pi * np.where(2 * m > N, N - m, m) / N)       # sin(pi m / N), m = -K..N
    k = np.arange(K + 1)
    return -2.0 * sines[level[:, None] + k + K] * sines[level[:, None] - k + K] + offset[:, None]


def _weight_rows(gaps: np.ndarray, N: int, n0: int, nd: int) -> np.ndarray:
    """W_jn = v_j(n) v_j(n0) for the even eigenvectors v_j(n) = g(n - nd; x_j)
    / ||g(.; x_j)||, from the gap table x_j - c_k (k <= N/2), shape (J, N//2 + 1):
    one inverse real FFT per block of rows."""
    W = np.empty((gaps.shape[0], N))
    d = (n0 - nd) % N
    for b in time_blocks(gaps.shape[0], 2 * N):
        g = np.fft.irfft(1.0 / gaps[b], N)                 # g(d; x_j), d = 0..N-1
        g *= (g[:, d] / np.einsum("jn,jn->j", g, g))[:, None]
        W[b, nd:], W[b, :nd] = g[:, :N - nd], g[:, N - nd:]
    return W


def _odd_levels(N: int) -> np.ndarray:
    """The free levels c_k, 0 < k < N/2, that keep one mode odd about nd."""
    return np.cos(2.0 * np.pi * np.arange(1, (N - 1) // 2 + 1) / N)


def build_defect_system(spec: LatticeSpec, defect: DefectSpec,
                        validate: bool = False) -> DefectSystem:
    """Find the even levels of one defect and their weight rows.

    validate=True checks that the roots plus the odd free levels are the
    eigenvalues of the dense defected Hamiltonian, and raises
    PoleCountMismatch where one differs by more than LEVEL_TOL (1 + |x|)
    plus the dense solver's own rounding.
    """
    N = spec.N
    nd = site_index(defect.nd, N)
    defect = DefectSpec(nd, float(defect.q))
    if defect.q == 0.0:
        empty = np.empty(0)
        poles = PoleSet(empty, empty, np.empty(0, dtype=np.int8), np.empty(0, dtype=int), empty)
        return DefectSystem(spec, defect, poles, empty, np.empty((0, N)))
    s = defect.q / (2.0 * spec.gamma)
    poles = find_poles(N, s, periodic_distance(nd, spec.n0, N))
    if validate:
        from .oracle import defect_levels
        dense = defect_levels(spec, nd, defect.q)
        mine = np.sort(np.append(poles.x, _odd_levels(N)))
        tol = LEVEL_TOL * (1.0 + np.abs(dense)) + N * np.finfo(float).eps * (1.0 + abs(s))
        if np.any(np.abs(mine - dense) > tol):
            raise PoleCountMismatch("roots and odd free levels disagree with the dense spectrum "
                                    f"(worst {np.max(np.abs(mine - dense)):.3g})")
    return DefectSystem(spec, defect, poles, poles.x,
                        _weight_rows(_gap_table(poles.level, poles.offset, N), N, spec.n0, nd))


def phi_series(system: DefectSystem) -> PhiSeries:
    """Exponential series for Phi(t) = i q psi(nd, t); empty when q = 0."""
    return PhiSeries(system.x, 1j * system.defect.q * system.weights[:, system.defect.nd],
                     system.spec.gamma)


def eigen_amplitudes(x: np.ndarray, weights: np.ndarray, gamma: float, times) -> np.ndarray:
    """sum_j exp(2 i gamma x_j t) weights_jn for a time grid, shape
    (len(times), N): one cos and one sin matrix product per block of times."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty((times.size, weights.shape[1]), dtype=complex)
    for block in time_blocks(times.size, weights.shape[1] + x.size):
        phase = 2.0 * gamma * times[block, None] * x
        out.real[block] = np.cos(phase) @ weights
        out.imag[block] = np.sin(phase) @ weights
    return out


def _wave_functions(system: DefectSystem, times) -> tuple[np.ndarray, np.ndarray]:
    """psi(n, t) and the free G(n, n0, t) for a time grid, shape (len(times), N) each."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    spec, nd = system.spec, system.defect.nd
    G = green_profiles(spec, times)
    if system.defect.q == 0.0:
        return G, G
    mirror = G[:, (np.arange(spec.N) + 2 * (spec.n0 - nd)) % spec.N]     # G(n, 2 nd - n0, t)
    return eigen_amplitudes(system.x, system.weights, spec.gamma, times) + 0.5 * (G - mirror), G


def amplitude_profiles(system: DefectSystem, times) -> np.ndarray:
    """A(n, nd, t) = psi(n, t) - G(n, n0, t) rows for a time grid, shape
    (len(times), N): the defect-scattered part of the wave function."""
    psi, G = _wave_functions(system, times)
    return psi - G


def amplitude_profile(system: DefectSystem, t: float) -> np.ndarray:
    """A(n, nd, t) for all sites n at one time."""
    return amplitude_profiles(system, [t])[0]


def corrections(system: DefectSystem, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Interference and scattered terms (I_n(t), K_n(t)) over all sites."""
    A = amplitude_profile(system, t)
    G = green_profile(system.spec, t)
    I = 2.0 * (np.conj(G) * A).real
    K = A.real ** 2 + A.imag ** 2
    return I, K


def occupation_defect_series(system: DefectSystem, times) -> np.ndarray:
    """P_n(t) rows for a time grid, shape (len(times), N); each row must
    stay normalized."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    psi = _wave_functions(system, times)[0]
    P = psi.real ** 2 + psi.imag ** 2
    _check_normalized(P.sum(axis=1), "probability", times)
    return P


def occupation_defect(system: DefectSystem, t: float) -> np.ndarray:
    """Site probabilities P_n(t) with the defect at one time."""
    return occupation_defect_series(system, [t])[0]


def steady_sums(weights: np.ndarray, N: int, n0: int, nd: int) -> tuple[np.ndarray, np.ndarray]:
    """(Ibar_n, Kbar_n) for even weight rows W_jn about nd: Ibar = -2 sum_k
    e_k (e_k + o_k) and Kbar = sum_j W_jn^2 + sum_k e_k^2 (module docstring).

    With m = n - nd, d = n0 - nd and level weight w_k (1/N for k = 0, N/2,
    else 2/N), e_k = w_k cos(2 pi k m/N) cos(2 pi k d/N) and o_k = w_k
    sin(2 pi k m/N) sin(2 pi k d/N), so both level sums are read from
    h(a) = sum_k w_k^2 cos(2 pi k a/N) = (2/N) [a = 0] - (1 + [N even] (-1)^a) / N^2.
    """
    a = np.arange(N)
    h = -(1.0 + (N % 2 == 0) * np.where(a % 2, -1.0, 1.0)) / N ** 2
    h[0] += 2.0 / N
    m, d = a - nd, n0 - nd
    even = h[0] + h[2 * m % N] + h[2 * d % N]
    minus = h[2 * (m - d) % N]
    ee = 0.25 * even + 0.125 * (h[2 * (m + d) % N] + minus)
    return -0.5 * (even + minus), np.einsum("jn,jn->n", weights, weights) + ee


def steady_corrections(system: DefectSystem) -> tuple[np.ndarray, np.ndarray]:
    """Long-time averages (Ibar_n, Kbar_n) of the interference and scattered
    terms, so that Pbar = steady_profile + Ibar + Kbar; zero when q = 0."""
    spec = system.spec
    if system.defect.q == 0.0:
        return np.zeros(spec.N), np.zeros(spec.N)
    return steady_sums(system.weights, spec.N, spec.n0, system.defect.nd)


def steady_occupation(system: DefectSystem) -> SiteProfile:
    """Steady profile Pbar + Ibar + Kbar, normalization-checked."""
    Ibar, Kbar = system._steady
    values = steady_profile(system.spec).values + Ibar + Kbar
    _check_normalized(values.sum(), "steady profile")
    return SiteProfile(values, "steady")


def moment_defect_series(system: DefectSystem, p: int, times) -> np.ndarray:
    """Delta_p^(d)(t) = sum_n [n-n0]^p P_n(t), from the normalization-checked
    occupation series."""
    return occupation_defect_series(system, times) @ distance_powers(system.spec, p)


def moment_defect_time(system: DefectSystem, p: int, t: float) -> float:
    return float(moment_defect_series(system, p, np.array([t]))[0])


def steady_moment_defect(system: DefectSystem, p: int) -> float:
    """Steady Delta_p^(d) from the closed forms plus the steady corrections."""
    Ibar, Kbar = system._steady
    dpow = distance_powers(system.spec, p)
    return steady_moment(p, system.spec) + float(dpow @ (Ibar + Kbar))
