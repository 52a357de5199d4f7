"""The free ring Green function, in offsets from a level, and the roots of
one on-site defect's secular equation.

With x = -E / 2 gamma, levels c_k = cos(2 pi k / N) (k <= N/2; k and N - k
share a level) and the free ring Green function

    g(d; x) = (1/N) sum_k cos(2 pi k d / N) / (x - c_k)
            = -cos((N/2 - d) theta) / (sin(theta) sin(N theta / 2)),  x = cos(theta),

a defect of strength s = q / 2 gamma has its levels at the roots of the
secular equation 1 = s g(0; x).  g(0; x) falls from +inf to -inf between
consecutive levels and vanishes at the odd node theta = (2m + 1) pi / N
between them, so each interval holds one root, in the half next to the
lower level for s > 0 and next to the upper one for s < 0.  The outermost
root lies in (1, 1 + s] for s > 0 and in (-1 - |s|, c_K) for s < 0, K = N//2
(for odd N that covers both sides of x = -1).  Every root is solved in its
offset from its level -- theta offset phi in band, x offset u outside -- by
one element-wise safeguarded Newton, so a root next to its level keeps its
digits.  The roots depend on N and s alone, and the strength is an array
axis: one solve covers a whole sweep, each row with the bits it gets alone.

_cos_sin and _gaps_theta (the gaps x - c_k at theta = pi j / N, the angle
reduced exactly) are shared with the M-defect engine, and so is the root
finder _safeguarded_newton.  The Green function off the band is oracle.py's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NotConverged


def _cos_sin(m, den):
    """cos and sin of pi m / den for integer m, exactly zero where they vanish."""
    a = np.pi * m / den
    return (np.where((2 * m) % (2 * den) == den, 0.0, np.cos(a)),
            np.where(m % den == 0, 0.0, np.sin(a)))


def _sines(r, N):
    """sin(pi r / 2N) for integers -2N <= r < 6N, each angle first reduced
    exactly (mod 4N, then sin(pi - a) = sin(a)) to |a| <= pi / 2: a sine
    next to a zero keeps its relative accuracy."""
    r = np.where(r > 2 * N, r - 4 * N, r)
    r = np.where(np.abs(r) > N, np.sign(r) * 2 * N - r, r)
    return np.sin(np.pi * r / (2 * N))


def _gaps_theta(j, N):
    """x - c_k for every level k <= N/2 at x = cos(pi j / N), shape
    j.shape + (N//2 + 1,), as -2 sin(pi (j + 2k) / 2N) sin(pi (j - 2k) / 2N),
    the angles reduced exactly (_sines): a gap next to a zero of its sine
    keeps its relative accuracy.  Over k both factors are stride-2 windows
    of one table of sines spanning j - 2k to j + 2k, forward from j and
    backward from it, so each row is two strided copies."""
    K, jm = N // 2, np.asarray(j) % (4 * N)
    lo, hi = (int(jm.min()), int(jm.max())) if jm.size else (0, 0)
    sin_r = _sines(np.arange(lo - 2 * K, hi + 2 * K + 1), N)   # j mod 4N - 2k to j mod 4N + 2k
    rows = sliding_window_view(sin_r, 2 * K + 1)[:, ::2]      # rows[i, k] = sin_r[i + 2k]
    at = jm - lo + 2 * K                                      # the row from angle j
    return -2.0 * rows[at] * rows[at - 2 * K, ::-1]


@functools.lru_cache(maxsize=16)
def _level_gap_factors(N):
    """Read-only windows (A, B) of one table of sines, shape (K + 1, K + 1)
    (K = N//2), A[i, k] = sin(pi (L + k) / N) and B[i, k] = sin(pi (L - k) / N)
    at the level L = K - i, so that -2 A[i] B[i] has the bits of
    _gaps_theta(2 L, N): the gaps c_L - c_k of a one-defect root i, which
    find_poles solves from level K - i (PoleSet).  Each row of either is
    contiguous, and the table holds 6K + 2 sines, against the (K + 1)^2 gaps."""
    K = N // 2
    sines = _sines(2 * np.arange(-K, 2 * K + 1), N)            # sin(pi t / N), t = -K..2K
    A = sliding_window_view(sines, K + 1)[K:][::-1]            # t = L + k
    B = sliding_window_view(sines[::-1].copy(), K + 1)[K:]     # t = L - k
    return A, B


@dataclass(frozen=True)
class PoleSet:
    """The real roots x_j of one defect's secular equation, sorted ascending.

    level_j is the level c_k each root was solved from and offset_j = x_j - c_k,
    exact where x_j rounds.  Each interval between levels holds one root, the
    outer one beyond c_0 (s > 0) or c_K (s < 0), so level is K, K - 1, ..., 0
    for every N and s (K = N//2).
    """

    x: np.ndarray
    level: np.ndarray
    offset: np.ndarray

    @property
    def x_retained(self) -> np.ndarray:
        """Every root; no root is discarded (the benchmark's traced run counts these)."""
        return self.x


def _safeguarded_newton(fn, lo, hi, pos_lo, max_iter=80, tol=1e-15):
    """Roots z in (lo, hi), one per element of the 1-d arrays lo, hi and
    pos_lo (whether fn is positive at lo).

    fn(idx, z) returns the values and slopes of the elements idx (ascending)
    at z.
    Every element runs its own Newton iteration from its bracket midpoint:
    the bracket shrinks to the side that keeps the sign change, a step
    leaving it (a zero slope included) is replaced by bisection, and the
    element stops when fn is exactly zero there or its Newton or bisection
    step falls below tol * max(1, |z|), a converged Newton step being taken
    even where it touches the bracket; tol = 0 runs to the last bit.  Each
    sweep evaluates fn once on the elements still running, so where fn's
    rows do not depend on the batch, a batch gives every root the bits it
    gets alone.  NotConverged if any element is still running after
    max_iter sweeps.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    positive = np.array(pos_lo, dtype=bool)
    z = 0.5 * (lo + hi)
    root, idx = z.copy(), np.arange(z.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if idx.size == 0:
                break
            fz, dfz = fn(idx, z)
            keep_lo = (fz > 0) == positive
            lo = np.where(keep_lo, z, lo)
            hi = np.where(keep_lo, hi, z)
            small = tol * np.maximum(1.0, np.abs(z))
            newton = np.where(fz == 0.0, z, z - fz / dfz)   # a zero slope gives inf or nan: bisect
            done = np.abs(newton - z) <= small
            cand = np.where(done | ((lo < newton) & (newton < hi)), newton, 0.5 * (lo + hi))
            stop = done | (np.abs(cand - z) <= small)
            if stop.any():
                root[idx[stop]] = cand[stop]
                run = ~stop
                idx, lo, hi, cand, positive = idx[run], lo[run], hi[run], cand[run], positive[run]
            z = cand
    if idx.size:
        raise NotConverged(f"{idx.size} roots still bracketed after {max_iter} sweeps")
    return root


def find_poles(N: int, s) -> PoleSet:
    """The N//2 + 1 roots of 1 = s g(0; x) for one defect of strength
    s = q / 2 gamma, sorted ascending.

    s may also be a 1-d array of nonzero strengths, of either sign: x, level
    and offset are then (Q, N//2 + 1), and one element-wise solve gives row
    i the bits that find_poles(N, s[i]) gives alone.

    Root i < K = N//2 lies between levels i and i + 1, at theta = theta_L +
    sig phi, 0 < phi < pi / N, from the level L of its half interval; there
    sig sin(theta) sin(N phi / 2) + s cos(N phi / 2) = 0, the secular
    equation times -s sin(theta) sin(N theta / 2) (-1)^L, which is s at
    phi = 0 and -sig sin(theta) at the odd node.  Root K is at x = c_L + side
    u, L = 0 or K, solved as side u (1/s - g_L(x)) = w_L with g_L the other
    levels' part of g(0; x) and w_L this level's weight: -w_L at u = 0.
    """
    strengths = np.asarray(s, dtype=float)
    if strengths.ndim > 1:
        raise ValueError("s must be a number or a 1-d array of strengths")
    if (strengths == 0.0).any():
        raise ValueError("q must be nonzero; the defect-free case has no poles to find")
    if not np.isfinite(strengths).all():
        raise ValueError(f"strengths must be finite, got {strengths}")
    K, s = N // 2, strengths.reshape(-1, 1)               # one row per strength
    up, side = s > 0.0, np.sign(s)
    sig = -side
    lev = np.concatenate([np.arange(K) + up, np.where(up, 0, K)], axis=1)
    c_lev, s_lev = _cos_sin(2 * lev, N)
    k = np.arange(K + 1)
    weight = np.where((k == 0) | (2 * k == N), 1.0, 2.0) / N
    # at the outer root's level L (0 or K): the gaps c_L - c_k and the other levels' weights
    out_gaps = _gaps_theta(2 * lev[:, K], N)
    out_weight = {L: np.where(k == L, 0.0, weight) for L in set(lev[:, K].tolist())}

    # flat elements: the Q K band roots strength by strength, then the Q outer roots
    Q = s.shape[0]
    nb, side_q = Q * K, side[:, 0]
    sig_f, s_f = np.repeat(sig[:, 0], K), np.repeat(s[:, 0], K)
    c_f, s_lev_f = c_lev[:, :K].ravel(), s_lev[:, :K].ravel()

    def secular(idx, z):
        val, slope = np.empty(z.size), np.empty(z.size)
        b = np.searchsorted(idx, nb)                       # idx[:b] in band, idx[b:] outside
        e, phi = idx[:b], z[:b]
        sg, sv, cl, sl = sig_f[e], s_f[e], c_f[e], s_lev_f[e]
        cp, sp, a = np.cos(phi), np.sin(phi), N * phi / 2.0
        sin_t = sl * cp + sg * cl * sp                     # theta = theta_L + sig phi
        cos_t = cl * cp - sg * sl * sp
        sa, ca = np.sin(a), np.cos(a)
        val[:b] = sg * sin_t * sa + sv * ca
        slope[:b] = cos_t * sa + (N / 2.0) * (sg * sin_t * ca - sv * sa)
        if b < idx.size:
            r, u = idx[b:] - nb, z[b:]                     # strength rows
            L, sd = lev[r, K], side_q[r]
            inv = 1.0 / (out_gaps[r] + (sd * u)[:, None])
            inv2 = inv * inv
            level_sum, slope_sum = np.empty(r.size), np.empty(r.size)
            for m in range(r.size):     # a (1, K+1) GEMV per strength, as alone: same bits
                w_other = out_weight[L[m]]
                level_sum[m] = (inv[m:m + 1] @ w_other)[0]
                slope_sum[m] = (inv2[m:m + 1] @ w_other)[0]
            rest = 1.0 / s[r, 0] - level_sum
            val[b:] = sd * u * rest - weight[L]
            slope[b:] = sd * rest + u * slope_sum
        return val, slope

    hi = np.concatenate([np.full(nb, np.pi / N),
                         np.abs(s[:, 0]) + (1.0 - side_q * c_lev[:, K])])   # from the outer level to x = side
    pos_lo = np.concatenate([np.repeat(up[:, 0], K), np.zeros(Q, dtype=bool)])
    z = _safeguarded_newton(secular, np.zeros(nb + Q), hi, pos_lo)
    z_band, z_out = z[:nb].reshape(Q, K), z[nb:, None]

    # x - c_L = -2 sin(theta_L + sig phi / 2) sin(sig phi / 2) in band, exactly reduced
    cp, sp = np.cos(z_band / 2.0), np.sin(z_band / 2.0)
    delta = np.concatenate([-2.0 * sig * sp * (s_lev[:, :K] * cp + sig * c_lev[:, :K] * sp),
                            side * z_out], axis=1)
    x = c_lev + delta
    order = (np.arange(Q)[:, None], np.argsort(x, axis=1))
    x, lev, delta = x[order], lev[order], delta[order]
    if strengths.ndim == 0:
        x, lev, delta = x[0], lev[0], delta[0]
    return PoleSet(x, lev, delta)
