"""Defect-free dynamics on the periodic chain.

The free propagator is a mode sum over the N//2 + 1 distinct levels c_k =
cos(2 pi k / N) (k and N - k share one).  In the frame m = n - n0 its real
and imaginary parts are the inverse real FFTs of cos and sin of
2 gamma t c_k, one batched transform for a block of times.  Occupation
moments are sums over that frame, Delta_p(t) = sum_m [m]^p |G|^2, with no
complex propagator and no rotation; each time's value has the bits it gets
alone, so the t* search can evaluate any slice of its grid or single times
with one level table.  Blocks of times keep their temporaries below
BLOCK_ELEMENTS array elements.  Steady-state quantities are closed forms,
never numeric time averages (those live in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotReached
from .lattice import LatticeSpec, periodic_distances

# Largest array (in elements) one block of times may build; bounds the
# temporaries of every batched time evaluation in this package.
BLOCK_ELEMENTS = 1 << 20

# Times per slice of the t* scan.  The first crossing lies near the
# wrap-around t ~ N / 4 gamma, about one eighth into the grid, so the scan
# stops after a few slices instead of evaluating the whole grid.
TSTAR_SLICE = 64


def time_blocks(count: int, per_time: int) -> list[slice]:
    """Slices over `count` times, each covering at most BLOCK_ELEMENTS
    elements when one time takes `per_time` (at least one time per slice).
    Any other batch axis (poles, say) is blocked the same way."""
    step = max(1, BLOCK_ELEMENTS // max(per_time, 1))
    return [slice(i, i + step) for i in range(0, count, step)]


@dataclass(frozen=True)
class SiteProfile:
    """Length-N steady probability vector; mirror_collision flags an
    infinite-strength profile whose mirror site lands on n0 or nd."""

    values: np.ndarray
    mirror_collision: bool = False


def _finite_times(times) -> np.ndarray:
    """Times as a 1-d float array; ValueError on a non-finite one."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError(f"times must be finite, got {times[~np.isfinite(times)][0]}")
    return times


def _levels(N: int) -> np.ndarray:
    """The N//2 + 1 distinct free levels c_k = cos(2 pi k / N), k <= N/2."""
    return np.cos(2.0 * np.pi * np.arange(N // 2 + 1) / N)


def _green_frame(levels: np.ndarray, gamma: float, N: int, times: np.ndarray) -> np.ndarray:
    """Re G and Im G at m = n - n0 for m = 0..N-1, shape (2, len(times), N):
    one inverse real FFT of cos and sin of 2 gamma t c_k."""
    phase = 2.0 * gamma * times[:, None] * levels
    spectra = np.zeros((2,) + phase.shape, dtype=complex)   # complex in: no cast inside irfft
    np.cos(phase, out=spectra.real[0])
    np.sin(phase, out=spectra.real[1])
    return np.fft.irfft(spectra, N)


def _moments(levels: np.ndarray, gamma: float, dpow: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_m dpow_m |G(m, t)|^2 over blocks of times, for the ring distance
    powers dpow of the frame m = n - n0; a row's bits do not depend on the
    other times."""
    N = dpow.size
    out = np.empty(times.size)
    for block in time_blocks(times.size, 2 * N):
        re, im = _green_frame(levels, gamma, N, times[block])
        out[block] = np.einsum("tm,m->t", re * re + im * im, dpow)
    return out


def green_profiles(spec: LatticeSpec, times: np.ndarray) -> np.ndarray:
    """Free amplitudes G(n, n0, t), shape (len(times), N)."""
    re, im = _green_frame(_levels(spec.N), spec.gamma, spec.N, _finite_times(times))
    return np.roll(re + 1j * im, spec.n0, axis=1)


def green_profile(spec: LatticeSpec, t: float) -> np.ndarray:
    """Free amplitudes G(n, n0, t) for all sites n at one time."""
    return green_profiles(spec, [t])[0]


def occupation(spec: LatticeSpec, t: float) -> np.ndarray:
    """Site probabilities |G|^2 at time t."""
    g = green_profile(spec, t)
    return (g.real ** 2 + g.imag ** 2)


def steady_profile(spec: LatticeSpec) -> SiteProfile:
    """Long-time averaged occupation: flat except at n0 (and its antipode for even N)."""
    N = spec.N
    if N % 2 == 0:
        values = np.full(N, 1.0 / N - 2.0 / N ** 2)
        values[spec.n0] = 2.0 / N - 2.0 / N ** 2
        values[(spec.n0 + N // 2) % N] = 2.0 / N - 2.0 / N ** 2
    else:
        values = np.full(N, 1.0 / N - 1.0 / N ** 2)
        values[spec.n0] = 2.0 / N - 1.0 / N ** 2
    return SiteProfile(values)


def moment_series(p: int, times: np.ndarray, spec: LatticeSpec) -> np.ndarray:
    """Delta_p(t) = sum_n [n - n0]^p |G(n, n0, t)|^2 at the requested times."""
    return _moments(_levels(spec.N), spec.gamma, periodic_distances(spec.N).astype(float) ** p,
                    _finite_times(times))


def moment_time(p: int, t: float, spec: LatticeSpec) -> float:
    """Displacement moment Delta_p(t) about the start site."""
    return float(moment_series(p, np.array([t]), spec)[0])


def steady_moment(p: int, spec: LatticeSpec) -> float:
    """Long-time average of Delta_p, closed form for both parities of N."""
    N = float(spec.N)
    if spec.N % 2 == 0:
        if p == 1:
            return N / 4.0
        if p == 2:
            return (N * N + 2.0) / 12.0 + N / 12.0 - 1.0 / (3.0 * N)
    else:
        if p == 1:
            return (N - 1) ** 2 * (N + 1) / (4.0 * N * N)
        if p == 2:
            return (N - 1) ** 2 * (N + 1) / (12.0 * N)
    raise ValueError(f"p must be 1 or 2, got {p}")


def fit_ballistic(spec: LatticeSpec, tmax: float | None = None, n: int = 64) -> float:
    """Least-squares D from Delta_2(t) ~ D t^2 on t in (0, tmax]."""
    if tmax is None:
        tmax = 0.05 / spec.gamma
    if not (np.isfinite(tmax) and tmax > 0):
        raise ValueError(f"tmax must be finite and > 0, got {tmax}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ts = np.linspace(0.0, tmax, n + 1)[1:]
    vals = moment_series(2, ts, spec)
    t2 = ts * ts
    return float((vals @ t2) / (t2 @ t2))


def estimate_tstar(spec: LatticeSpec, threshold: float = 0.01,
                   grid_points: int = 2048) -> float:
    """Earliest time where Delta_2 deviates from 2 gamma^2 t^2 by `threshold`.

    Scans a dense grid up to 2 N / gamma in consecutive slices of
    TSTAR_SLICE times and stops at the first slice holding a crossing, then
    bisects.  The level table and the squared distances are built once and
    serve every slice and bisection step, with the bits moment_series gives
    the same times.  The fitted prefactor in t* = a N / gamma depends on
    the threshold; the linear-in-N scaling does not.
    """
    if not 0.0 < threshold < 0.5:
        raise ValueError(f"threshold must lie in (0, 0.5), got {threshold}")
    if grid_points < 0:
        raise ValueError(f"grid_points must be >= 0, got {grid_points}")
    N, gamma = spec.N, spec.gamma
    levels, d2 = _levels(N), periodic_distances(N).astype(float) ** 2
    tmax = 2.0 * N / gamma
    times = np.linspace(0.0, tmax, grid_points + 1)[1:]
    for start in range(0, times.size, TSTAR_SLICE):
        ts = times[start:start + TSTAR_SLICE]
        ball = 2.0 * gamma ** 2 * ts ** 2
        dev = np.abs(_moments(levels, gamma, d2, ts) - ball) / ball
        above = np.nonzero(dev > threshold)[0]
        if above.size:
            break
    else:
        raise NotReached(f"no deviation above {threshold} up to t = {tmax}")
    i = start + int(above[0])
    lo = times[i - 1] if i > 0 else times[0] * 1e-6
    hi = times[i]

    def deviation(t: float) -> float:
        b = 2.0 * gamma ** 2 * t * t
        return abs(_moments(levels, gamma, d2, np.array([t]))[0] - b) / b

    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if deviation(mid) > threshold:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * tmax:
            break
    return 0.5 * (lo + hi)


def fit_tstar_scaling(Ns, gamma: float = 1.0, threshold: float = 0.01):
    """Linear fit t* = a N / gamma + b over the given sizes.

    Returns (slope, intercept, r_squared, tstars).
    """
    Ns = list(Ns)
    tstars = np.array([estimate_tstar(LatticeSpec(N, gamma, N // 2), threshold)
                       for N in Ns])
    xs = np.asarray(Ns, dtype=float)
    slope, intercept = np.polyfit(xs, tstars, 1)
    fit = slope * xs + intercept
    ss_res = float(np.sum((tstars - fit) ** 2))
    ss_tot = float(np.sum((tstars - np.mean(tstars)) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2, tstars


def distance_powers(spec: LatticeSpec, p: int) -> np.ndarray:
    """[n - n0]^p for every site, as floats."""
    return periodic_distances(spec.N, spec.n0).astype(float) ** p
