"""Finite-strength single defect: the response series Phi(t), the convolution
amplitude, time-resolved and steady corrections, and the defected moments.

The wave function splits as psi(n, t) = G(n, n0, t) + A(n, nd, t), where A
convolves the free propagator from the defect site with the defect response
Phi.  Expanding G in lattice modes turns the convolution into closed form:
the kernel for one (mode, pole) pair is

    E(c, x, t) = exp(i gamma (c + x) t) * t * sinc(gamma (x - c) t),

which is exact for every separation of mode frequency c and pole x -- the
resonant limit c -> x is just sinc(0) = 1, so no branch switch is needed.
`_sinc_mode_sums` is the one place that evaluates it (the two-defect
solver uses it too); it runs over blocks of times whose (T, N, J) kernel
stays below homogeneous.BLOCK_ELEMENTS elements.  Every time-resolved
observable -- A, P_n(t), Delta_p(t) -- is batched over times; the
single-time functions are views of one-row batches.

Steady-state corrections follow from time-averaging: a frequency survives
only when the mode pair (k1, k2) satisfies k1 = k2 or k1 + k2 = N.  For
even N those two branches overlap at k1 = k2 = N/2; that pair is counted
once.  Counting it twice shifts every site by -1/N^2 and breaks
normalization by 1/N, which the exact-diagonalization cross-check rejects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationDrift
from .homogeneous import (SiteProfile, distance_powers, green_profile,
                          green_profiles, steady_moment, steady_profile,
                          time_blocks)
from .lattice import LatticeSpec, periodic_distance, site_index
from .spectral import DefectDenominator, PoleSet, find_poles

NORM_TOL = 1e-8


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
    """Defect response Phi(t) = sum_j w_j exp(2 i gamma x_j t), w_j = i q f_j."""

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
    """Precomputed pole data for one (lattice, defect) pair."""

    spec: LatticeSpec
    defect: DefectSpec
    poles: PoleSet
    x: np.ndarray            # retained pole positions
    f: np.ndarray            # retained residues
    modes: np.ndarray        # cos(2 pi k / N)
    cmat: np.ndarray         # gamma (c_k - x_j), shape (N, J)

    @property
    def dist(self) -> int:
        return periodic_distance(self.defect.nd, self.spec.n0, self.spec.N)


def build_defect_system(spec: LatticeSpec, defect: DefectSpec,
                        validate: bool = False) -> DefectSystem:
    """Find the poles for one defect and cache the mode denominators.

    validate=True cross-checks the retained poles against the dense
    diagonalization of the defected Hamiltonian.
    """
    nd = site_index(defect.nd, spec.N)
    defect = DefectSpec(nd, float(defect.q))
    if defect.q == 0.0:
        empty = np.empty(0)
        poles = PoleSet(empty, empty, np.empty(0, dtype=np.int8))
        modes = np.cos(2.0 * np.pi * np.arange(spec.N) / spec.N)
        return DefectSystem(spec, defect, poles, empty, empty, modes,
                            np.empty((spec.N, 0)))
    denom = DefectDenominator.from_physical(spec, nd, defect.q)
    checker = None
    if validate:
        from .oracle import defect_pole_positions
        checker = lambda: defect_pole_positions(spec, nd, defect.q)
    poles = find_poles(denom, validate=checker)
    x = poles.x_retained
    f = poles.f_retained
    modes = np.cos(2.0 * np.pi * np.arange(spec.N) / spec.N)
    cmat = spec.gamma * (modes[:, None] - x[None, :])
    return DefectSystem(spec, defect, poles, x, f, modes, cmat)


def phi_series(system: DefectSystem) -> PhiSeries:
    """Exponential series for Phi(t); empty when q = 0."""
    return PhiSeries(system.x, 1j * system.defect.q * system.f, system.spec.gamma)


def _sinc_mode_sums(gamma: float, modes: np.ndarray, x: np.ndarray, weights,
                    times: np.ndarray) -> np.ndarray:
    """sum_j E(c_k, x_j, t) w_j for every row w of `weights`, shape
    (len(weights), len(times), N): the per-mode convolution amplitudes."""
    c = modes[None, :, None]
    xx = x[None, None, :]
    out = np.empty((len(weights), times.size, modes.size), dtype=complex)
    for block in time_blocks(times.size, modes.size * x.size):
        tt = times[block, None, None]
        E = np.exp(1j * gamma * (c + xx) * tt) * tt * np.sinc(gamma * (xx - c) * tt / np.pi)
        for i, w in enumerate(weights):
            out[i, block] = E @ w
    return out


def amplitude_profiles(system: DefectSystem, times) -> np.ndarray:
    """A(n, nd, t) rows for a time grid, shape (len(times), N): the
    defect-scattered part of the wave function."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    N = system.spec.N
    if system.x.size == 0:
        return np.zeros((times.size, N), dtype=complex)
    w = 1j * system.defect.q * system.f
    s = _sinc_mode_sums(system.spec.gamma, system.modes, system.x, [w], times)[0]
    return np.roll(np.fft.ifft(s, axis=1), system.defect.nd, axis=1)


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
    G = green_profiles(system.spec, times)
    A = amplitude_profiles(system, times)
    P = (G.real ** 2 + G.imag ** 2 + 2.0 * (np.conj(G) * A).real
         + A.real ** 2 + A.imag ** 2)
    _check_normalized(P.sum(axis=1), "probability", times)
    return P


def occupation_defect(system: DefectSystem, t: float) -> np.ndarray:
    """Site probabilities P_n(t) with the defect at one time."""
    return occupation_defect_series(system, [t])[0]


def _steady_pole_sums(C: np.ndarray, w: np.ndarray, n0: int, nd: int):
    """Site sums behind the steady corrections, before their prefactors.

    For mode denominators C (N, J) and pole weights w (J,) returns
        I_n = sum_k cos(2 pi k (n0-nd)/N) S_k + sum_k' cos(2 pi k (2n-n0-nd)/N) S_k
        K_n = sum_j w_j^2 |Z_j(n)|^2 + sum_k S_k^2 + sum_k' S_k^2 cos(4 pi k (n-nd)/N)
    with S_k = sum_j w_j / C_k(x_j), Z_j(n) = sum_k e^{2 pi i k (n-nd)/N} / C_k(x_j)
    and k' the k2 = N - k1 branch 1..N-1 without the k = N/2 overlap with
    the diagonal branch for even N.
    """
    N = C.shape[0]
    Sk = (w[None, :] / C).sum(axis=1)        # (N,)
    k = np.arange(N)
    n = np.arange(N)
    k2 = np.arange(1, N)
    if N % 2 == 0:
        k2 = k2[k2 != N // 2]

    const = float(Sk @ np.cos(2.0 * np.pi * k * (n0 - nd) / N))
    cross = (Sk[k2][None, :]
             * np.cos(2.0 * np.pi * np.outer(2 * n - n0 - nd, k2) / N)).sum(axis=1)

    T1 = np.zeros(N)
    for j in range(w.size):
        Z = np.roll(N * np.fft.ifft(1.0 / C[:, j]), nd)
        T1 += w[j] ** 2 * (Z.real ** 2 + Z.imag ** 2)
    T2 = float(Sk @ Sk)
    T3 = (Sk[k2][None, :] ** 2
          * np.cos(4.0 * np.pi * np.outer(n - nd, k2) / N)).sum(axis=1)
    return const + cross, T1 + T2 + T3


def steady_corrections(system: DefectSystem) -> tuple[np.ndarray, np.ndarray]:
    """Long-time averages (Ibar_n, Kbar_n) from the pole sums.

    Ibar_n = (q/N^2) sum_j f_j [ sum_k cos(2 pi k (n0-nd)/N)/C_k(x_j)
                                 + sum_k' cos(2 pi k (2n-n0-nd)/N)/C_k(x_j) ]
    Kbar_n = (q^2/4N^2) [ sum_j f_j^2 |Z_j(n)|^2 + sum_k S_k^2
                          + sum_k' S_k^2 cos(4 pi k (n-nd)/N) ]
    with C_k(x_j) = gamma (cos(2 pi k/N) - x_j), S_k = sum_j f_j / C_k(x_j),
    Z_j(n) = sum_k e^{2 pi i k (n-nd)/N} / C_k(x_j), and k' the half-band
    range without the even-N overlap mode.
    """
    spec, q = system.spec, system.defect.q
    N = spec.N
    if q == 0.0 or system.x.size == 0:
        return np.zeros(N), np.zeros(N)
    I, K = _steady_pole_sums(system.cmat, system.f, spec.n0, system.defect.nd)
    return (q / N ** 2) * I, (q ** 2 / (4.0 * N ** 2)) * K


def steady_occupation(system: DefectSystem) -> SiteProfile:
    """Steady profile Pbar + Ibar + Kbar, normalization-checked."""
    Ibar, Kbar = steady_corrections(system)
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
    Ibar, Kbar = steady_corrections(system)
    dpow = distance_powers(system.spec, p)
    return steady_moment(p, system.spec) + float(dpow @ (Ibar + Kbar))


# ---------------------------------------------------------------------------
# Expanded four-index forms of the time-resolved corrections.  These restate
# I and K as explicit mode-pair/pole sums (the shape the steady-state limit
# is read off from) and exist to cross-validate the composed expressions;
# cost grows like N^2 J^2, so keep N small.
# ---------------------------------------------------------------------------

def corrections_expanded(system: DefectSystem, t: float) -> tuple[np.ndarray, np.ndarray]:
    spec, q = system.spec, system.defect.q
    N, gamma, n0, nd = spec.N, spec.gamma, spec.n0, system.defect.nd
    if q == 0.0 or system.x.size == 0:
        return np.zeros(N), np.zeros(N)
    x, f, c = system.x, system.f, system.modes
    C = system.cmat                                     # (N, J)
    n = np.arange(N)
    kk = np.arange(N)
    ph_d = np.exp(2j * np.pi * np.outer(kk, n - nd) / N)   # (K, n)
    ph_0 = np.exp(2j * np.pi * np.outer(kk, n - n0) / N)

    # I_n: sum over (j, k1, k2) of (f_j / C_{k2}(x_j)) e^{iB} (e^{i beta t} - e^{-2 i C_{k1}(x_j) t})
    beta = 2.0 * gamma * (c[None, :] - c[:, None])      # beta(k1, k2), (K1, K2)
    term = np.zeros(N, dtype=complex)
    for j in range(x.size):
        osc = np.exp(1j * beta * t) - np.exp(-2j * C[:, j] * t)[:, None]   # (K1, K2)
        M = (f[j] / C[:, j])[None, :] * osc                                # (K1, K2)
        term += np.einsum("ab,an,bn->n", M, np.conj(ph_0), ph_d)
    I = (q / N ** 2) * term.real

    # K_n: sum over (j, r, k1, k2); note the crossed time arguments
    # C_{k2}(x_j) and C_{k1}(x_r) in the oscillating bracket.
    term = np.zeros(N, dtype=complex)
    for j in range(x.size):
        for r in range(x.size):
            W = 2.0 * gamma * (x[j] - x[r])
            osc = (np.exp(1j * W * t) + np.exp(-1j * beta * t)
                   - np.exp(-2j * C[:, j] * t)[None, :]
                   - np.exp(2j * C[:, r] * t)[:, None])
            M = (f[j] * f[r]) / (C[:, j][:, None] * C[:, r][None, :]) * osc
            term += np.einsum("ab,an,bn->n", M, ph_d, np.conj(ph_d))
    K = (q ** 2 / (4.0 * N ** 2)) * term.real
    return I, K
