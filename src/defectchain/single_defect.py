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
keeps its digits.  The rows do not depend on nd (it only rotates them), so a
sweep (defect_systems) solves all its strengths at once, and one blocked
pass of FFTs (_weight_rows) serves every site of a strength.  With the
weight rows W_jn = v_j(n) v_j(n0),

    psi(n, t) = sum_j exp(2 i gamma x_j t) W_jn + (G(n, n0, t) - G(n, 2 nd - n0, t)) / 2,

the second term being the odd part of the free propagator.  As W_jn =
g(n - nd; x_j) scale_j, the first is the inverse real FFT, rotated by nd, of
sum_j exp(2 i gamma x_j t) scale_j / (x_j - c_k): products with the row
pass's own spectra, and no W.  DefectSystem and the time series serve any
number of defects: with none psi is G itself, and the system of two or more
(multi_defect) holds all N levels as rows W, so psi is their sum alone
(eigen_amplitudes).

No sector holds a degenerate pair, so the time average keeps the square of
each level's amplitude: with S_n = sum_j W_jn^2 over the even levels and o_k
the odd part about nd of the free level-k propagator,

    Pbar_n = S_n + Obar_n,   Obar_n = sum_k o_k(n)^2,

a sum of positive terms, and the steady moments are sum_n [n-n0]^p Pbar_n.
Obar is a closed form (_free_level_sums) and so is the paper's split of Pbar into
the free steady profile plus corrections,

    Kbar_n = S_n + sum_k e_k(n)^2,   Ibar_n = -2 sum_k e_k(n) (e_k(n) + o_k(n)),

e_k being the even part; Ibar does not depend on q.  The steady functions
take at most one live defect.

A one-defect system holds its levels and O(N) more, never its (J, N)
weight matrix: the first steady read of a sweep's strength sums S for all
its sites from one row pass, each block of rows going straight into S, and
psi (occupation_defect_series, moment_defect_series) and Phi's amplitudes
(phi_series, the site nd's column of W) each read one pass of their own.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NormalizationDrift
from .homogeneous import (SiteProfile, _distance_powers, _finite_times,
                          green_profiles, steady_moment, steady_profile,
                          time_blocks)
from .lattice import LatticeSpec, site_index
from .spectral import _gaps_theta, find_poles

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

    def __post_init__(self):
        if not np.isfinite(self.q):
            raise ValueError(f"q must be finite, got {self.q}")


@dataclass(frozen=True)
class PhiSeries:
    """Defect response Phi(t) = i sum_j c_j exp(2 i gamma x_j t), real amplitudes
    c_j = q W_j,nd, on the shared time kernel (eigen_amplitudes)."""

    x: np.ndarray
    amplitudes: np.ndarray
    gamma: float

    def __call__(self, t) -> np.ndarray:
        """Phi at a time or an array of times (ValueError where the phase is not finite)."""
        times = _finite_times(np.ravel(t), self.gamma, self.x)
        out = 1j * eigen_amplitudes(self.x, self.amplitudes, self.gamma, times)
        return out.reshape(np.shape(t)) if np.ndim(t) else out[0]


@dataclass(frozen=True)
class DefectSystem:
    """A ring with on-site defects in spectral form: levels x_j (x = -E / 2
    gamma) and the weight rows W_jn = v_j(n) v_j(n0) of their eigenvectors.

    The number of live (nonzero-strength) defects fixes the part of the free
    propagator G that the rows leave out of psi(n, t): with none, all of G
    (no rows); with one, its odd part about the defect (the rows are the
    N//2 + 1 even levels); with two or more, nothing (all N levels).

    `rows` is W itself, or for one live defect its strength's _EvenRows,
    which hold O(N) per site and no (J, N) array.  The last time grid a
    series evaluated keeps its moments Delta_1(t), Delta_2(t)
    (moment_defect_series)."""

    spec: LatticeSpec
    defects: tuple[DefectSpec, ...]
    x: np.ndarray
    rows: np.ndarray | _EvenRows
    _grid: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def live(self) -> tuple[DefectSpec, ...]:
        """The defects of nonzero strength."""
        return tuple(d for d in self.defects if d.q != 0.0)

    @property
    def _level_sum(self) -> np.ndarray:
        """S_n = sum_j W_jn^2 (read-only), formed once per strength of a sweep
        and shared by the steady profile, corrections and moments."""
        return self.rows.level_sums[self.live[0].nd]


def _one_defect(system: DefectSystem, what: str) -> DefectSpec | None:
    """The live defect of a system with at most one, None with none;
    ValueError with two or more."""
    live = system.live
    if len(live) > 1:
        raise ValueError(f"{what} take at most one defect of nonzero strength, got {len(live)}")
    return live[0] if live else None


def _weight_rows(j: np.ndarray, offset: np.ndarray, N: int, n0: int, sites) -> Iterator:
    """The row pass: for each block of roots x = cos(pi j / N) + offset (one
    entry of j and offset per root), its slice, the spectra 1 / (x - c_k)
    (k <= N/2), their inverse real FFTs g(m; x) (m = 0..N-1), for each nd in
    `sites` the scale g(n0 - nd; x) / ||g||^2, and a spare (rows + 1, N)
    block the reader may overwrite.  The even eigenvectors v_j(n) =
    g(n - nd; x_j) / ||g(.; x_j)|| give the weight rows W_jn = g(n - nd; x_j) scale_j.

    The gaps x - c_k are (cos(pi j / N) - c_k) + offset, so a root solved
    from a level keeps its offset as its own gap.  Each block takes its gap
    rows and one inverse real FFT; the rows do not depend on the site,
    which only rotates them."""
    blocks = time_blocks(j.size, 8 * N)       # small blocks: no (J, N) array
    m, K = j[blocks[0]].size, N // 2
    # One buffer for the pass's spectra, rows and spare block: arrays of their
    # own, per block or per role, went back to the system when freed and the
    # next pass faulted them in again (3300 page faults per pass at N = 2000).
    buffer = np.empty(2 * m * (K + 1) + (2 * m + 1) * N)
    spectra = buffer[:2 * m * (K + 1)].view(complex).reshape(m, K + 1)
    rows = buffer[2 * m * (K + 1):][:m * N].reshape(m, N)
    spare = buffer[2 * m * (K + 1) + m * N:].reshape(m + 1, N)
    spectra.imag = 0.0                        # complex in: no cast in irfft
    for b in blocks:
        s, g = spectra[:j[b].size], rows[:j[b].size]
        gaps = _gaps_theta(j[b], N)
        gaps += offset[b, None]
        np.divide(1.0, gaps, out=s.real)
        np.fft.irfft(s, N, out=g)
        norms = np.einsum("jn,jn->j", g, g)
        scales = [(g[:, (n0 - nd) % N] / norms)[:, None] for nd in sites]
        yield b, s.real, g, scales, spare[:g.shape[0] + 1]


@dataclass(frozen=True)
class _EvenRows:
    """One strength's even levels at the sites of a sweep, as the roots
    (j, offset) of _weight_rows: each of its readers takes one row pass."""

    j: np.ndarray
    offset: np.ndarray
    N: int
    n0: int
    sites: tuple[int, ...]

    @cached_property
    def level_sums(self) -> dict[int, np.ndarray]:
        """S_n = sum_j W_jn^2 of every site (read-only), from one pass.  Per
        site a block's rows are scaled unrotated, W_j,nd+m = g(m; x_j) scale_j,
        in one contiguous multiply, and summed in the frame m = n - nd: the
        first block by einsum("jn,jn->n", W, W), each later one as its
        squares in order under the running sum; the bits of the eager
        einsum("jn,jn->n", W, W).  Each sum is shifted to the sites once at
        the end."""
        sites, N = tuple(dict.fromkeys(self.sites)), self.N
        frames = np.empty((len(sites), N))
        for b, _, rows, scales, stack in _weight_rows(self.j, self.offset, N, self.n0, sites):
            W = stack[1:]
            for S, scale in zip(frames, scales):
                np.multiply(rows, scale, out=W)
                if b.start == 0:
                    np.einsum("jn,jn->n", W, W, out=S)
                else:
                    stack[0] = S
                    np.square(W, out=W)
                    np.einsum("jn->n", stack, out=S)
        sums = np.empty_like(frames)
        for nd, S, frame in zip(sites, sums, frames):
            S[nd:], S[:nd] = frame[:N - nd], frame[N - nd:]
        sums.flags.writeable = False
        return dict(zip(sites, sums))

    def column(self, nd: int) -> np.ndarray:
        """W_j,nd = g(0; x_j) scale_j, the site nd's own column of W, from
        one pass and without W."""
        out = np.empty(self.j.size)
        for b, _, rows, (scale,), _ in _weight_rows(self.j, self.offset, self.N, self.n0, [nd]):
            np.multiply(rows[:, 0], scale[:, 0], out=out[b])
        return out

    def series(self, nd: int, x: np.ndarray, gamma: float, times: np.ndarray) -> np.ndarray:
        """sum_j exp(2 i gamma x_j t) W_jn of the site nd for a time grid,
        shape (len(times), N), from one pass and without W: the inverse real
        FFT, in the frame m = n - nd, of E_k(t) = sum_j exp(2 i gamma x_j t)
        scale_j / (x_j - c_k).  Each block of roots adds to E the product of
        its cos and sin rows (stacked, 2T of them) with its scaled spectra,
        which irfft leaves intact; one stacked inverse real FFT gives the
        real and imaginary frames."""
        N, T = self.N, times.size
        scaled = 2.0 * gamma * times[:, None]
        E = np.zeros((2 * T, N // 2 + 1), dtype=complex)       # complex in: no cast in irfft
        sums, term = E.real, np.empty(E.shape)
        for b, inverse, _, (scale,), spare in _weight_rows(self.j, self.offset, N, self.n0, [nd]):
            cauchy = spare.reshape(-1)[:inverse.size].reshape(inverse.shape)
            np.multiply(inverse, scale, out=cauchy)
            phase = scaled * x[b]
            sums += np.matmul(np.concatenate([np.cos(phase), np.sin(phase)]), cauchy, out=term)
        frames = np.fft.irfft(E, N)
        psi = np.empty((T, N), dtype=complex)
        for part, frame in ((psi.real, frames[:T]), (psi.imag, frames[T:])):
            part[:, nd:], part[:, :nd] = frame[:, :N - nd], frame[:, N - nd:]
        return psi


def build_defect_system(spec: LatticeSpec, defect: DefectSpec) -> DefectSystem:
    """The one point of defect_systems: one defect's even levels and their
    weight rows (oracle.check_defect_roots referees the levels)."""
    return next(defect_systems(spec, [defect.nd], [defect.q]))[0]


def _free_system(spec: LatticeSpec, defects: tuple[DefectSpec, ...]) -> DefectSystem:
    """A system with no live defect: no levels of its own."""
    return DefectSystem(spec, defects, np.empty(0), np.empty((0, spec.N)))


def defect_systems(spec: LatticeSpec, sites, strengths) -> Iterator[tuple[DefectSystem, ...]]:
    """For each strength in turn, the systems at every site in `sites`;
    build_defect_system is the sweep of one site and one strength.

    A sweep shares its work: one find_poles call solves every nonzero
    strength, and a strength's systems share its roots (_EvenRows).  Their
    first steady read sums the level sums S of every site from one blocked
    pass of inverse real FFTs, so a sweep read for steady observables takes
    one pass per strength and holds O(N) per system; no system forms its
    weight rows W.
    """
    N = spec.N
    sites = [site_index(nd, N) for nd in sites]
    qs = np.array(strengths, dtype=float).reshape(-1)
    live = qs != 0.0
    poles = find_poles(N, qs[live] / (2.0 * spec.gamma)) if live.any() else None
    for q, r in zip(qs.tolist(), np.cumsum(live) - 1):
        if q == 0.0:
            yield tuple(_free_system(spec, (DefectSpec(nd, 0.0),)) for nd in sites)
            continue
        rows = _EvenRows(2 * poles.level[r], poles.offset[r], N, spec.n0, tuple(sites))
        yield tuple(DefectSystem(spec, (DefectSpec(nd, q),), poles.x[r], rows) for nd in sites)


def phi_series(system: DefectSystem) -> PhiSeries:
    """Exponential series for Phi(t) = i q psi(nd, t) of the one live
    defect; empty without one.  Its amplitudes q W_j,nd take one row pass."""
    defect = _one_defect(system, "Phi(t) series")
    amplitudes = defect.q * system.rows.column(defect.nd) if defect else np.empty(0)
    return PhiSeries(system.x, amplitudes, system.spec.gamma)


def eigen_amplitudes(x: np.ndarray, weights: np.ndarray, gamma: float, times) -> np.ndarray:
    """sum_j exp(2 i gamma x_j t) weights[j] for a time grid, shape (len(times),) +
    weights.shape[1:], one cos and one sin product per block of times; 1-d weights
    are summed time by time (einsum: a BLAS product's bits depend on its row count)."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty((times.size,) + weights.shape[1:], dtype=complex)
    product = np.matmul if weights.ndim > 1 else functools.partial(np.einsum, "tj,j->t")
    for block in time_blocks(times.size, x.size + out[:1].size):
        phase = 2.0 * gamma * times[block, None] * x
        out.real[block] = product(np.cos(phase), weights)
        out.imag[block] = product(np.sin(phase), weights)
    return out


def _wave_functions(system: DefectSystem, times) -> np.ndarray:
    """psi(n, t) for a time grid, shape (len(times), N): the weight rows'
    series plus the part of the free G(n, n0, t) that the rows leave out
    (DefectSystem)."""
    spec, live = system.spec, system.live
    if len(live) > 1:
        return eigen_amplitudes(system.x, system.rows, spec.gamma, times)
    G = green_profiles(spec, times)
    if not live:
        return G
    G -= G[:, (np.arange(spec.N) + 2 * (spec.n0 - live[0].nd)) % spec.N]     # G(n, n0, t) - G(n, 2 nd - n0, t)
    G *= 0.5
    return np.add(system.rows.series(live[0].nd, system.x, spec.gamma, times), G, out=G)


def occupation_defect_series(system: DefectSystem, times) -> np.ndarray:
    """P_n(t) rows for a time grid, shape (len(times), N), for any number
    of defects; each row must stay normalized.  The system keeps the grid's
    Delta_1(t) and Delta_2(t) for moment_defect_series."""
    spec = system.spec
    times = _finite_times(times, spec.gamma, system.x)
    psi = _wave_functions(system, times)
    P = psi.real ** 2 + psi.imag ** 2
    _check_normalized(P.sum(axis=1), "probability", times)
    system._grid.clear()
    system._grid.update({"times": times.tobytes(),
                         **{p: P @ _distance_powers(spec.N, spec.n0, p) for p in (1, 2)}})
    return P


def occupation_defect(system: DefectSystem, t: float) -> np.ndarray:
    """Site probabilities P_n(t) at one time."""
    return occupation_defect_series(system, [t])[0]


@functools.lru_cache(maxsize=16)
def _free_level_sums(N: int, n0: int, nd: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Ibar_n, sum_k e_k(n)^2, Obar_n = sum_k o_k(n)^2) for a defect at nd,
    e_k and o_k the even and odd parts about nd of the free level-k propagator
    (module docstring); read-only, and kept for the last few geometries, as
    they do not depend on q.

    With m = n - nd, d = n0 - nd and level weight w_k (1/N for k = 0, N/2,
    else 2/N), e_k = w_k cos(2 pi k m/N) cos(2 pi k d/N) and o_k = w_k
    sin(2 pi k m/N) sin(2 pi k d/N), so every level sum is read from
    h(a) = sum_k w_k^2 cos(2 pi k a/N) = (2/N) [a = 0] - (1 + [N even] (-1)^a) / N^2.
    Obar is grouped so that it is exactly 0 where every o_k vanishes (m or
    d is 0 or N/2).
    """
    a = np.arange(N)
    h = -(1.0 + (N % 2 == 0) * np.where(a % 2, -1.0, 1.0)) / N ** 2
    h[0] += 2.0 / N
    m, d = a - nd, n0 - nd
    h_m, h_d, plus, minus = h[2 * m % N], h[2 * d % N], h[2 * (m + d) % N], h[2 * (m - d) % N]
    even = h[0] + h_m + h_d
    ee = 0.25 * even + 0.125 * (plus + minus)
    odd = 0.25 * ((h[0] - h_d) - (h_m - 0.5 * (plus + minus)))
    sums = (-0.5 * (even + minus), ee, odd)
    for v in sums:
        v.flags.writeable = False
    return sums


def steady_corrections(system: DefectSystem) -> tuple[np.ndarray, np.ndarray]:
    """Long-time averages (Ibar_n, Kbar_n) of the interference and scattered
    terms, so that Pbar = steady_profile + Ibar + Kbar; zero with no live
    defect, ValueError with two or more."""
    spec, defect = system.spec, _one_defect(system, "steady observables")
    if defect is None:
        return np.zeros(spec.N), np.zeros(spec.N)
    Ibar, ee, _ = _free_level_sums(spec.N, spec.n0, defect.nd)
    return Ibar.copy(), system._level_sum + ee


def steady_occupation(system: DefectSystem) -> SiteProfile:
    """Steady profile Pbar + Ibar + Kbar, normalization-checked."""
    Ibar, Kbar = steady_corrections(system)
    values = steady_profile(system.spec).values + Ibar + Kbar
    _check_normalized(values.sum(), "steady profile")
    return SiteProfile(values)


def moment_defect_series(system: DefectSystem, p: int, times) -> np.ndarray:
    """Delta_p^(d)(t) = sum_n [n-n0]^p P_n(t) for p = 1 or 2, from the
    normalization-checked occupation series; on the last grid the system
    evaluated, with no second psi pass."""
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    times = _finite_times(times, system.spec.gamma, system.x)
    if system._grid.get("times") != times.tobytes():
        occupation_defect_series(system, times)
    return system._grid[p].copy()


def steady_moment_defect(system: DefectSystem, p: int) -> float:
    """Steady Delta_p^(d) = sum_n [n-n0]^p (S_n + Obar_n) for p = 1 or 2: a
    sum of positive terms, so a state localized on the defect keeps its
    digits.  With no live defect, homogeneous.steady_moment."""
    spec, defect = system.spec, _one_defect(system, "steady observables")
    if defect is None or p not in (1, 2):       # steady_moment rejects any other p
        return steady_moment(p, spec)
    odd = _free_level_sums(spec.N, spec.n0, defect.nd)[2]
    return float(_distance_powers(spec.N, spec.n0, p) @ (system._level_sum + odd))
