"""Defect-free dynamics on the periodic chain.

The free propagator is a mode sum over the N//2 + 1 distinct levels c_k =
cos(2 pi k / N) (k and N - k share one).  In the frame m = n - n0 its real
and imaginary parts are inverse real FFTs of cos and sin of 2 gamma t c_k,
one batched transform for a block of times (_FreeFrames).  For even N the
levels pair up, c_{N/2-k} = -c_k, so Re G vanishes on odd m and Im G on
even m: one frame h = Re G + Im G, one inverse real FFT of cos + sin over
k <= N/4 mirrored as cos - sin, holds both, and |G|^2 = h^2.  That is half
the cos/sin calls and one FFT per time; odd N takes the two frames.
Occupation moments are sums over the frame, Delta_p(t) = sum_m [m]^p |G|^2,
with no complex propagator and no rotation; each time's value has the bits
it gets alone, so the t* search can evaluate any slice of its grid or single
times with one kernel.  The time passes (moments and G itself) run over
blocks of times that fit one core's L2 cache: a block holds at most
CACHE_ELEMENTS array elements in all its temporaries together (phases,
spectra, frame and products), allocated once per kernel.  Steady-state
quantities are closed forms, never numeric time averages (those live in the
tests).
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NotReached
from .lattice import LatticeSpec, periodic_distances

# Largest array (in elements) one block of times may build; bounds the
# temporaries of the batched evaluations that do not ask for CACHE_ELEMENTS.
BLOCK_ELEMENTS = 1 << 20
# All the temporaries of one cache-sized block, in elements: 2 MiB of
# float64, one core's L2.  The free chain's time passes and the M-defect
# build's passes over roots x levels use it.
CACHE_ELEMENTS = 1 << 18

# Times per slice of the t* scan.  The first crossing lies near the
# wrap-around t ~ N / 4 gamma, about one eighth into the grid, so the scan
# stops after a few slices instead of evaluating the whole grid.
TSTAR_SLICE = 64
TSTAR_GRID = 2048           # t* grid times, up to 2 N / gamma
BALLISTIC_POINTS = 64       # ballistic fit times, up to BALLISTIC_WINDOW / gamma
BALLISTIC_WINDOW = 0.05


def time_blocks(count: int, per_time: int, budget: int = BLOCK_ELEMENTS) -> list[slice]:
    """Slices over `count` times, each covering at most `budget` elements
    when one time takes `per_time` (at least one time per slice).  Any other
    batch axis (poles, say) is blocked the same way."""
    step = max(1, budget // max(per_time, 1))
    return [slice(i, i + step) for i in range(0, count, step)]


@dataclass(frozen=True)
class SiteProfile:
    """Length-N steady probability vector; mirror_collision flags an
    infinite-strength profile whose mirror site lands on n0 or nd."""

    values: np.ndarray
    mirror_collision: bool = False


def _finite_times(times, gamma: float, x=()) -> np.ndarray:
    """Times as a 1-d float array; ValueError on any other shape, or on a time
    whose largest phase 2 gamma t max(1, |x_j|) is not finite (cos and sin of it would be NaN)."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1:
        raise ValueError(f"times must be a number or a 1-d array, got shape {times.shape}")
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(2.0 * gamma * np.max(np.abs(x), initial=1.0) * times)
    if bad.any():
        raise ValueError(f"times must be finite, as must the phase 2 gamma x t, got {times[bad][0]}")
    return times


def _levels(N: int) -> np.ndarray:
    """The N//2 + 1 distinct free levels c_k = cos(2 pi k / N), k <= N/2.
    For even N the table is built from k <= N/4 with c_{N/2-k} = -c_k
    exactly and c_{N/4} = 0.0 (N = 0 mod 4), the half-band symmetry the
    one-frame kernel (_FreeFrames) rests on."""
    K = N // 2
    if N % 2:
        return np.cos(2.0 * np.pi * np.arange(K + 1) / N)
    Q = N // 4
    c = np.empty(K + 1)
    c[:Q + 1] = np.cos(2.0 * np.pi * np.arange(Q + 1) / N)
    if N % 4 == 0:
        c[Q] = 0.0
    c[:Q:-1] = -c[:K - Q]
    return c


class _FreeFrames:
    """The free chain's time kernel on one ring, with the buffers of one
    block of at most `rows` times, allocated once and reused by every call.

    `frames(times)` gives, block by block, the frame of G(m, t) at
    m = n - n0, m = 0..N-1, shape (times, F, N).  For even N the levels pair
    up (c_{N/2-k} = -c_k), so cos(2 gamma t c_k) repeats with period N/2 in k
    and sin flips sign: Re G vanishes on odd m and Im G on even m.  The one
    frame (F = 1) is then h = Re G + Im G, one inverse real FFT of
    cos + sin over k <= N/4 mirrored as cos - sin, with |G|^2 = h^2, G = h at
    even m and i h at odd m: half the cos/sin calls and one FFT.  Odd N has
    no such pairing and takes two frames (F = 2), Re G and Im G, the inverse
    real FFTs of cos and sin over all N//2 + 1 levels."""

    def __init__(self, N: int, gamma: float, rows: int):
        levels = _levels(N)
        half = N % 2 == 0
        self.N, self.gamma, self.rows = N, gamma, rows
        # the levels that take a phase: k <= N/4 for even N, all for odd N
        self.phased = levels[:N // 4 + 1] if half else levels
        self.scaled = np.empty(rows)
        self.phase = np.empty((rows, self.phased.size))
        self.cos = np.empty_like(self.phase) if half else None
        frames = 1 if half else 2
        # complex in: no cast inside irfft
        self.spectra = np.zeros((rows, frames, levels.size), dtype=complex)
        self.frame = np.empty((rows, frames, N))

    def frames(self, times: np.ndarray) -> Iterator:
        """(slice, frame) for each block of times, the frame of shape
        (times, F, N); the reader may overwrite it, as the next block does."""
        P, L = self.phased.size, self.spectra.shape[2]
        for start in range(0, times.size, self.rows):
            block = slice(start, start + self.rows)
            n = times[block].size
            phase, spectra = self.phase[:n], self.spectra.real[:n]
            np.multiply(2.0 * self.gamma, times[block], out=self.scaled[:n])
            np.multiply(self.scaled[:n, None], self.phased, out=phase)
            if self.cos is None:
                np.cos(phase, out=spectra[:, 0])
                np.sin(phase, out=spectra[:, 1])
            else:
                cos = self.cos[:n]
                np.cos(phase, out=cos)
                np.sin(phase, out=phase)
                np.add(cos, phase, out=spectra[:, 0, :P])
                np.subtract(cos[:, :L - P], phase[:, :L - P], out=spectra[:, 0, :P - 1:-1])
            np.fft.irfft(self.spectra[:n], self.N, out=self.frame[:n])
            yield block, self.frame[:n]

    def moments(self, dpow: np.ndarray, times: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """sum_m dpow_m |G(m, t)|^2 for the ring distance powers dpow of the
        frame m = n - n0; a row's bits do not depend on the other times."""
        out = np.empty(times.size) if out is None else out
        for block, frame in self.frames(times):
            sq = frame[:, 0]
            np.square(sq, out=sq)
            if frame.shape[1] == 2:                 # odd N: (Re G)^2 + (Im G)^2
                np.square(frame[:, 1], out=frame[:, 1])
                np.add(sq, frame[:, 1], out=sq)
            np.einsum("tm,m->t", sq, dpow, out=out[block])
        return out


def _block_rows(count: int, N: int) -> int:
    """Times per cache-sized block of a pass over `count` times (at least
    one, at most `count`).  The kernel's buffers take 2.5 N per time (even
    N) or 4.5 N (odd N); 8 N leaves room in the cache for the reader's
    temporaries and the FFT's plan and work rows (blocks of 5 N ran 5 %
    slower for odd N, and no faster for even N)."""
    return max(1, min(count, CACHE_ELEMENTS // (8 * N)))


def green_profiles(spec: LatticeSpec, times: np.ndarray) -> np.ndarray:
    """Free amplitudes G(n, n0, t), shape (len(times), N), over blocks of times."""
    times = _finite_times(times, spec.gamma)
    N = spec.N
    out = np.zeros((times.size, N), dtype=complex)
    site = (np.arange(N) + spec.n0) % N             # the site of frame index m
    kernel = _FreeFrames(N, spec.gamma, _block_rows(times.size, N))
    for block, frame in kernel.frames(times):
        if frame.shape[1] == 1:                     # even N: G = h, i h on even, odd m
            out.real[block, site[0::2]] = frame[:, 0, 0::2]
            out.imag[block, site[1::2]] = frame[:, 0, 1::2]
        else:
            out.real[block, site] = frame[:, 0]
            out.imag[block, site] = frame[:, 1]
    return out


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
    """Delta_p(t) = sum_n [n - n0]^p |G(n, n0, t)|^2 at the requested times
    (p = 1 or 2)."""
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    times = _finite_times(times, spec.gamma)
    kernel = _FreeFrames(spec.N, spec.gamma, _block_rows(times.size, spec.N))
    return kernel.moments(_distance_powers(spec.N, 0, p), times)


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


def fit_ballistic(spec: LatticeSpec) -> float:
    """Least-squares D from Delta_2(t) ~ D t^2 on BALLISTIC_POINTS times in
    (0, BALLISTIC_WINDOW / gamma]."""
    ts = np.linspace(0.0, BALLISTIC_WINDOW / spec.gamma, BALLISTIC_POINTS + 1)[1:]
    t2 = ts * ts
    return float((moment_series(2, ts, spec) @ t2) / (t2 @ t2))


def estimate_tstar(spec: LatticeSpec, threshold: float = 0.01) -> float:
    """Earliest time where Delta_2 deviates from 2 gamma^2 t^2 by `threshold`.

    Scans the TSTAR_GRID grid times up to 2 N / gamma in consecutive slices
    of TSTAR_SLICE times and stops at the first slice holding a crossing,
    then bisects.  One kernel (the level table and its buffers) and the
    squared distances serve every slice and bisection step, with the bits
    moment_series gives the same times.  The fitted prefactor in
    t* = a N / gamma depends on the threshold; the linear-in-N scaling does
    not.
    """
    if not 0.0 < threshold < 0.5:
        raise ValueError(f"threshold must lie in (0, 0.5), got {threshold}")
    N, gamma = spec.N, spec.gamma
    kernel, d2 = _FreeFrames(N, gamma, _block_rows(TSTAR_SLICE, N)), _distance_powers(N, 0, 2)
    tmax = 2.0 * N / gamma
    times = np.linspace(0.0, tmax, TSTAR_GRID + 1)[1:]
    for start in range(0, times.size, TSTAR_SLICE):
        ts = times[start:start + TSTAR_SLICE]
        ball = 2.0 * gamma ** 2 * ts ** 2
        dev = np.abs(kernel.moments(d2, ts) - ball) / ball
        above = np.nonzero(dev > threshold)[0]
        if above.size:
            break
    else:
        raise NotReached(f"no deviation above {threshold} up to t = {tmax}")
    i = start + int(above[0])
    lo = times[i - 1] if i > 0 else times[0] * 1e-6
    hi = times[i]
    one, value = np.empty(1), np.empty(1)         # the bisection's time and moment

    def deviation(t: float) -> float:
        b = 2.0 * gamma ** 2 * t * t
        one[0] = t
        return abs(kernel.moments(d2, one, value)[0] - b) / b

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

    Returns (slope, intercept, r_squared, tstars); ValueError on one size.
    """
    Ns = list(Ns)
    if len(set(Ns)) < 2:
        raise ValueError(f"need two distinct sizes for a line, got {Ns}")
    tstars = np.array([estimate_tstar(LatticeSpec(N, gamma, N // 2), threshold)
                       for N in Ns])
    xs = np.asarray(Ns, dtype=float)
    slope, intercept = np.polyfit(xs, tstars, 1)
    fit = slope * xs + intercept
    ss_res = float(np.sum((tstars - fit) ** 2))
    ss_tot = float(np.sum((tstars - np.mean(tstars)) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2, tstars


@functools.lru_cache(maxsize=16)
def _distance_powers(N: int, origin: int, p: int) -> np.ndarray:
    """[n - origin]^p for every site, as floats; read-only, and kept for the
    last few geometries."""
    d = periodic_distances(N, origin).astype(float) ** p
    d.flags.writeable = False
    return d


def distance_powers(spec: LatticeSpec, p: int) -> np.ndarray:
    """[n - n0]^p for every site, as floats (a fresh array)."""
    return _distance_powers(spec.N, spec.n0, p).copy()
