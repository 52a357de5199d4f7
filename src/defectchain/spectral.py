"""The free ring Green function, in offsets from a level, and the poles and
residues of one on-site defect.

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
digits.  The residue of root j for start and defect sites at ring distance d
is f_j = g(d; x_j) / (-s dg(0; x_j)/dx) = v_j(nd) v_j(n0).

The helpers evaluate g and the gaps x - c_k at theta = pi j / N + phi with
the angle reduced exactly, and are shared with the M-defect engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .lattice import LatticeSpec, periodic_distance


def _cos_sin(m, den):
    """cos and sin of pi m / den for integer m, exactly zero where they vanish."""
    a = np.pi * m / den
    return (np.where((2 * m) % (2 * den) == den, 0.0, np.cos(a)),
            np.where(m % den == 0, 0.0, np.sin(a)))


def _green_theta(d, j, phi, N):
    """g(d; cos theta) at theta = pi j / N + phi, |phi| < pi / N, with phi first
    moved to the nearest multiple of pi / N (exactly, by Sterbenz)."""
    shift = np.rint(phi * (N / np.pi)).astype(int)
    j, phi = j + shift, phi - shift * (np.pi / N)
    cm, sm = _cos_sin((j * (N - 2 * d)) % (4 * N), 2 * N)
    cr, sr = _cos_sin(j, N)
    y, half = (N / 2.0 - d) * phi, N * phi / 2.0
    sin_half = np.where(j % 2 == 0, np.sin(half), np.cos(half)) * np.where(j % 4 >= 2, -1.0, 1.0)
    return -(cm * np.cos(y) - sm * np.sin(y)) / ((sr * np.cos(phi) + cr * np.sin(phi)) * sin_half)


def _gaps_theta(j, phi, N):
    """x - c_k for every level k <= N/2 at x = cos(pi j / N + phi), as products."""
    k2, half = 2 * np.arange(N // 2 + 1), np.pi / (2 * N)
    return -2.0 * np.sin(half * (j + k2) + phi / 2) * np.sin(half * (j - k2) + phi / 2)


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


class PoleClass(IntEnum):
    IN_BAND = 0
    BOUND_STATE = 1
    DISCARDED = 2


@dataclass(frozen=True)
class PoleSet:
    """Real poles x_j of the defect response with residues f_j.

    Sorted ascending in x.  level_j is the level c_k each pole was solved
    from and offset_j = x_j - c_k, exact where x_j rounds.  DISCARDED marks
    roots whose residue is below f_tol of the largest (the start site sits
    on a node of that eigenvector); sums over the pole set skip them.
    """

    x: np.ndarray
    f: np.ndarray
    kind: np.ndarray
    level: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))
        object.__setattr__(self, "kind", np.asarray(self.kind, dtype=np.int8))
        object.__setattr__(self, "level", np.asarray(self.level, dtype=int))
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=float))

    @property
    def retained(self) -> np.ndarray:
        return self.kind != PoleClass.DISCARDED

    @property
    def x_retained(self) -> np.ndarray:
        return self.x[self.retained]

    @property
    def f_retained(self) -> np.ndarray:
        return self.f[self.retained]

    @property
    def bound_count(self) -> int:
        return int(np.sum(self.kind == PoleClass.BOUND_STATE))

    def __len__(self) -> int:
        return self.x.size


def _safeguarded_newton(fn, lo, hi, pos_lo, max_iter=80, tol=1e-15):
    """Roots z in (lo, hi), one per element of the 1-d arrays lo, hi and
    pos_lo (whether fn is positive at lo).

    fn(idx, z) returns the values and slopes of the elements idx at z.
    Every element runs its own Newton iteration from its bracket midpoint:
    the bracket shrinks to the side that keeps the sign change, a step
    leaving it is replaced by bisection, and the element stops when fn is
    exactly zero there or its Newton or bisection step falls below
    tol * max(1, |z|), a converged Newton step being taken even where it
    touches the bracket.  Each sweep evaluates fn once on the elements
    still running, so a batch gives every root the bits it gets alone.
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
    root[idx] = z
    return root


def find_poles(N: int, s: float, dist: int, *, f_tol: float = 1e-12) -> PoleSet:
    """The N//2 + 1 roots of 1 = s g(0; x) for one defect of strength
    s = q / 2 gamma, with residues for start and defect sites at ring
    distance dist, classified and sorted ascending.

    Root i < K = N//2 lies between levels i and i + 1, at theta = theta_L +
    sig phi, 0 < phi < pi / N, from the level L of its half interval; there
    sig sin(theta) sin(N phi / 2) + s cos(N phi / 2) = 0, the secular
    equation times -s sin(theta) sin(N theta / 2) (-1)^L, which is s at
    phi = 0 and -sig sin(theta) at the odd node.  Root K is at x = c_L + side
    u, L = 0 or K, solved as side u (1/s - g_L(x)) = w_L with g_L the other
    levels' part of g(0; x) and w_L this level's weight: -w_L at u = 0.
    """
    if s == 0.0:
        raise ValueError("q must be nonzero; the defect-free case has no poles to find")
    K, up = N // 2, s > 0.0
    sig, side = (-1.0, 1.0) if up else (1.0, -1.0)
    lev = np.append(np.arange(K) + up, 0 if up else K)
    c_lev, s_lev = _cos_sin(2 * lev, N)
    k = np.arange(K + 1)
    weight = np.where((k == 0) | (2 * k == N), 1.0, 2.0) / N
    w_other = np.where(k == lev[K], 0.0, weight)
    out_gaps = _gaps_theta(2 * lev[K], 0.0, N)            # c_L - c_k at the outer root's level

    def band(i, phi):
        """sin and cos of theta = theta_L + sig phi, and sin, cos of N phi / 2."""
        cp, sp, a = np.cos(phi), np.sin(phi), N * phi / 2.0
        return (s_lev[i] * cp + sig * c_lev[i] * sp, c_lev[i] * cp - sig * s_lev[i] * sp,
                np.sin(a), np.cos(a))

    def offset(i, phi):
        """x - c_L = -2 sin(theta_L + sig phi / 2) sin(sig phi / 2), exactly reduced."""
        cp, sp = np.cos(phi / 2.0), np.sin(phi / 2.0)
        return -2.0 * sig * sp * (s_lev[i] * cp + sig * c_lev[i] * sp)

    def secular(idx, z):
        val, slope = np.empty(z.size), np.empty(z.size)
        b = idx < K
        sin_t, cos_t, sa, ca = band(idx[b], z[b])
        val[b] = sig * sin_t * sa + s * ca
        slope[b] = cos_t * sa + (N / 2.0) * (sig * sin_t * ca - s * sa)
        if not b.all():
            u = z[~b]
            inv = 1.0 / (out_gaps + side * u[:, None])
            rest = 1.0 / s - inv @ w_other
            val[~b] = side * u * rest - weight[lev[K]]
            slope[~b] = side * rest + u * ((inv * inv) @ w_other)
        return val, slope

    edge = 1.0 - side * c_lev[K]                          # from the outer level to x = side
    hi = np.append(np.full(K, np.pi / N), abs(s) + edge)
    z = _safeguarded_newton(secular, np.zeros(K + 1), hi, np.append(np.full(K, up), False))

    phi, u = z[:K], z[K]
    sin_t, _, sa, _ = band(np.arange(K), phi)
    slope = secular(np.arange(K), phi)[1]
    delta = np.append(offset(np.arange(K), phi), side * u)
    x = c_lev + delta
    gaps = out_gaps + side * u
    kind = np.full(K + 1, PoleClass.IN_BAND, dtype=np.int8)
    if u > edge:
        # a bound state, x = side cosh(mu): the level sum for g(d) would cancel
        # to rounding, so g(d) = g(0) rho with g(0) = 1/s and, for z = side e^-mu,
        # rho = (z^d + z^(N-d)) / (1 + z^N)
        kind[K] = PoleClass.BOUND_STATE
        beyond = u - edge                                 # |x| - 1
        mu = np.log1p(beyond + np.sqrt(beyond * (2.0 + beyond)))
        one_plus = (lambda a: 1.0 + np.exp(-a)) if side ** N > 0 else (lambda a: -np.expm1(-a))
        g_d = side ** dist * np.exp(-dist * mu) * one_plus((N - 2 * dist) * mu) / one_plus(N * mu) / s
    else:
        g_d = (weight * _cos_sin((2 * k * dist) % (2 * N), N)[0] / gaps).sum()
    # in band, -s dg(0)/dx = -slope / (sin(theta)^2 sin(N phi / 2)) at a root
    f = np.append(-_green_theta(dist, 2 * lev[:K], sig * phi, N) * sin_t * sin_t * sa / slope,
                  g_d / (s * (weight / (gaps * gaps)).sum()))
    kind[np.abs(f) < f_tol * np.max(np.abs(f))] = PoleClass.DISCARDED
    order = np.argsort(x)
    return PoleSet(x[order], f[order], kind[order], lev[order], delta[order])
