"""Chebyshev polynomials, the defect denominator, and real pole extraction.

The Laplace-domain response of a single on-site defect is a rational
function in the scaled variable x = eps / (2 i gamma).  Its denominator

    Q(x) = (x^2 - 1) U_{N-1}(x) - (q / 2 gamma) [T_N(x) + 1]

has degree N + 1 and factors, by the half-angle identities, into a
q-independent part with roots at the odd Chebyshev nodes cos((2l-1) pi / N)
(where the numerator also vanishes, so the residues are exactly zero) and a
q-dependent part whose roots are the defect-shifted levels.  Root finding
works on the q-dependent factor:

    in band   g(theta) = sin(theta) sin(N theta / 2) + (q/2g) cos(N theta/2)
    out of band, x = +-cosh(mu), hyperbolic analogues of g.

This deflation keeps bracketing well conditioned at any defect strength:
raw Q develops root pairs split by O(gamma/(q N)) at large q, while the
roots of g stay separated by ~2 pi / N.  Residues come from the analytic
derivative of the recurrences, never from numerical differentiation.

All in-band brackets are polished together: _safeguarded_newton is
element-wise, each root keeping its own bracket, bisection fallback and
stopping rule, so a batch gives every root the bits it gets alone.  The
residues are then array expressions over the roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .errors import NonSimplePole, PoleCountMismatch
from .lattice import LatticeSpec, periodic_distance


class ChebyshevKind(Enum):
    FIRST = "T"
    SECOND = "U"
    THIRD = "V"


def cheb_eval(kind: ChebyshevKind, m: int, x):
    """Evaluate T_m, U_m or V_m at x by the shared three-term recurrence.

    Works for scalar or array x, real or complex.  All three kinds satisfy
    p_{m+1} = 2 x p_m - p_{m-1}; they differ only in the m = 1 seed.
    """
    if m < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {m}")
    x = np.asarray(x)
    ones = np.ones_like(x)
    if m == 0:
        return ones if ones.ndim else ones[()]
    if kind is ChebyshevKind.FIRST:
        p1 = x * 1.0
    elif kind is ChebyshevKind.SECOND:
        p1 = 2.0 * x
    else:
        p1 = 2.0 * x - 1.0
    p0 = ones
    for _ in range(m - 1):
        p0, p1 = p1, 2.0 * x * p1 - p0
    return p1 if np.ndim(p1) else p1[()]


def cheb_t(m: int, x):
    return cheb_eval(ChebyshevKind.FIRST, m, x)


def cheb_u(m: int, x):
    """U_m(x), with the convention U_{-1} = 0."""
    if m == -1:
        x = np.asarray(x)
        z = np.zeros_like(x)
        return z if z.ndim else z[()]
    return cheb_eval(ChebyshevKind.SECOND, m, x)


def cheb_u_with_derivative(m: int, x):
    """(U_m(x), U_m'(x)) by differentiating the recurrence."""
    x = np.asarray(x)
    u0 = np.ones_like(x)
    d0 = np.zeros_like(x)
    if m == 0:
        return u0, d0
    u1 = 2.0 * x
    d1 = 2.0 * np.ones_like(x)
    for _ in range(m - 1):
        u0, u1 = u1, 2.0 * x * u1 - u0
        d0, d1 = d1, 2.0 * u0 + 2.0 * x * d1 - d0
    return u1, d1


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


def strong_defect_nodes(N: int):
    """Angles theta_k = pi (2k - 1) / N and nodes x_k = cos(theta_k).

    k runs to N/2 for even N and (N-1)/2 for odd N; these are the
    q-independent roots of the defect denominator.
    """
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    count = N // 2 if N % 2 == 0 else (N - 1) // 2
    k = np.arange(1, count + 1)
    theta = np.pi * (2 * k - 1) / N
    return theta, np.cos(theta)


class PoleClass(IntEnum):
    IN_BAND = 0
    BOUND_STATE = 1
    DISCARDED = 2


@dataclass(frozen=True)
class PoleSet:
    """Real poles x_j of the defect response with residues f_j.

    Sorted ascending in x.  DISCARDED marks zero-residue roots (spectator
    roots of the denominator where the numerator vanishes as well); sums
    over the pole set skip them.
    """

    x: np.ndarray
    f: np.ndarray
    kind: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))
        object.__setattr__(self, "kind", np.asarray(self.kind, dtype=np.int8))

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


@dataclass(frozen=True)
class DefectDenominator:
    """The rational-response denominator Q and numerator P for one defect.

    q_over_2gamma is the single dimensionless strength entering Q;
    dist is the ring distance |n_d - n0| entering P.
    """

    N: int
    q_over_2gamma: float
    dist: int

    @classmethod
    def from_physical(cls, spec: LatticeSpec, nd: int, q: float) -> "DefectDenominator":
        return cls(spec.N, q / (2.0 * spec.gamma), periodic_distance(nd, spec.n0, spec.N))

    def value(self, x):
        x = np.asarray(x, dtype=float) if not np.iscomplexobj(x) else np.asarray(x)
        return (x * x - 1.0) * cheb_u(self.N - 1, x) - self.q_over_2gamma * (cheb_t(self.N, x) + 1.0)

    def derivative(self, x):
        """Q'(x) from T_N' = N U_{N-1} and the differentiated U recurrence."""
        x = np.asarray(x, dtype=float) if not np.iscomplexobj(x) else np.asarray(x)
        u, du = cheb_u_with_derivative(self.N - 1, x)
        return 2.0 * x * u + (x * x - 1.0) * du - self.q_over_2gamma * self.N * u

    def numerator(self, x):
        return cheb_t(self.N - self.dist, x) + cheb_t(self.dist, x)

    def value_scale(self, x):
        """Magnitude of the two Q terms before cancellation, for residuals."""
        x = np.asarray(x, dtype=float)
        return (np.abs((x * x - 1.0) * cheb_u(self.N - 1, x))
                + abs(self.q_over_2gamma) * (np.abs(cheb_t(self.N, x)) + 1.0))


def _inband_g(theta, N, q2g):
    a = N * theta / 2.0
    return np.sin(theta) * np.sin(a) + q2g * np.cos(a)


def _inband_g_deriv(theta, N, q2g):
    half = N / 2.0
    b = half * theta
    sb = np.sin(b)
    return np.cos(theta) * sb + half * np.sin(theta) * np.cos(b) - q2g * half * sb


def _safeguarded_newton(fn, dfn, lo, hi, flo, max_iter=80, tol=1e-15):
    """Roots of fn, one per bracket [lo, hi] with a sign change, element-wise.

    lo, hi and flo = fn(lo) are arrays of one shape (0-d for one root).
    Every element runs its own Newton iteration from its bracket midpoint:
    the bracket shrinks to the side that keeps the sign change, a step
    leaving it is replaced by bisection, and the element stops when fn is
    exactly zero there or the step falls below tol * max(1, |z|).  Each
    sweep evaluates fn and dfn once on the elements still running.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    positive = np.asarray(flo) > 0
    z = 0.5 * (lo + hi)
    shape = z.shape
    root = z.reshape(-1).copy()
    idx = np.arange(root.size).reshape(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if idx.size == 0:
                break
            fz = fn(z)
            keep_lo = (fz > 0) == positive
            lo = np.where(keep_lo, z, lo)
            hi = np.where(keep_lo, hi, z)
            cand = z - fz / dfn(z)           # a zero slope gives inf or nan: bisect
            cand = np.where((lo < cand) & (cand < hi), cand, 0.5 * (lo + hi))
            cand = np.where(fz == 0.0, z, cand)
            stop = np.abs(cand - z) <= tol * np.maximum(1.0, np.abs(z))
            if stop.any():
                root[idx[stop]] = cand[stop]
                run = ~stop
                idx, lo, hi, cand, positive = idx[run], lo[run], hi[run], cand[run], positive[run]
            z = cand
    root[idx] = z
    return root.reshape(shape)


def _sech2(z):
    """1 / cosh(z)^2 without overflow at large z."""
    e = math.exp(-abs(z))
    return (2.0 * e / (1.0 + e * e)) ** 2


def _csch2(z):
    """1 / sinh(z)^2 without overflow at large z."""
    e = math.exp(-abs(z))
    return (2.0 * e / (1.0 - e * e)) ** 2


def _bound_state_mu(N, rhs):
    """Solve sinh(mu) tanh(N mu / 2) = rhs > 0 (monotone, unique root)."""
    fn = lambda m: math.sinh(m) * math.tanh(N * m / 2.0) - rhs
    dfn = lambda m: (math.cosh(m) * math.tanh(N * m / 2.0)
                     + math.sinh(m) * (N / 2.0) * _sech2(N * m / 2.0))
    lo = 1e-14
    hi = math.asinh(rhs) + 2.0
    return float(_safeguarded_newton(fn, dfn, lo, hi, fn(lo)))


def _bound_state_mu_odd_negative(N, rhs):
    """Solve sinh(mu) coth(N mu / 2) = rhs; root exists only for rhs > 2/N."""
    if rhs <= 2.0 / N * (1.0 + 1e-14):
        return None
    fn = lambda m: math.sinh(m) / math.tanh(N * m / 2.0) - rhs
    dfn = lambda m: (math.cosh(m) / math.tanh(N * m / 2.0)
                     - math.sinh(m) * (N / 2.0) * _csch2(N * m / 2.0))
    lo = 1e-9
    hi = math.asinh(rhs) + 2.0
    return float(_safeguarded_newton(fn, dfn, lo, hi, fn(lo)))


def _bound_residue_positive(N, d, q2g, mu):
    """f = P/Q' at x = cosh(mu) > 1, scaled by exp(-N mu / 2) throughout."""
    e = math.exp(-N * mu)
    num = math.sinh(mu) * 0.5 * (math.exp(-d * mu) + math.exp(-(N - d) * mu))
    den = (math.cosh(mu) * 0.5 * (1.0 - e)
           + (N / 2.0) * math.sinh(mu) * 0.5 * (1.0 + e)
           - q2g * (N / 2.0) * 0.5 * (1.0 - e))
    return num / den, den


def _bound_residue_negative_even(N, d, q2g, mu):
    """f at x = -cosh(mu), even N."""
    e = math.exp(-N * mu)
    num = math.sinh(mu) * 0.5 * (math.exp(-d * mu) + math.exp(-(N - d) * mu))
    den = (math.cosh(mu) * 0.5 * (1.0 - e)
           + (N / 2.0) * math.sinh(mu) * 0.5 * (1.0 + e)
           + q2g * (N / 2.0) * 0.5 * (1.0 - e))
    sign = -1.0 if d % 2 else 1.0
    return sign * num / den, den


def _bound_residue_negative_odd(N, d, q2g, mu):
    """f at x = -cosh(mu), odd N."""
    e = math.exp(-N * mu)
    num = math.sinh(mu) * 0.5 * (math.exp(-d * mu) - math.exp(-(N - d) * mu))
    den = (math.cosh(mu) * 0.5 * (1.0 + e)
           + (N / 2.0) * math.sinh(mu) * 0.5 * (1.0 - e)
           + q2g * (N / 2.0) * 0.5 * (1.0 + e))
    sign = -1.0 if d % 2 else 1.0
    return sign * num / den, den


def find_poles(denom: DefectDenominator, *, grid_density: int = 8, f_tol: float = 1e-12,
               deriv_tol: float = 1e-8, validate=None) -> PoleSet:
    """All real roots of Q with residues and classification.

    The q-dependent factor is bracketed on a uniform grid of grid_density*N
    angles (Chebyshev-extrema density) and all brackets are polished at
    once by the element-wise safeguarded Newton; the in-band residues are
    array expressions over the roots.  The bound state solves the monotone
    hyperbolic equation directly.  The q-independent factor contributes the
    odd nodes with exactly zero residue, flagged DISCARDED.

    validate, when given a callable returning the oracle pole positions
    (ascending x values of spectrum classes that couple the defect site to
    the start site), cross-checks the retained set against it.
    """
    N, q2g, d = denom.N, denom.q_over_2gamma, denom.dist
    if q2g == 0.0:
        raise ValueError("q must be nonzero; the defect-free case has no poles to find")
    if N % 2 == 1 and abs(2.0 + q2g * N) < 1e-8:
        # the repulsive level sits exactly on the q-independent root x = -1,
        # turning it into a double root of the denominator
        raise NonSimplePole("bound state crosses x = -1 (q / 2 gamma = -2/N)")

    # q-dependent in-band roots: sign changes of g on a uniform theta grid.
    n_grid = grid_density * N
    theta = np.linspace(0.0, np.pi, n_grid + 1)
    gv = _inband_g(theta, N, q2g)
    gv[0] = q2g                      # exact endpoint values
    if N % 2 == 0:
        gv[-1] = q2g * (1.0 if (N // 2) % 2 == 0 else -1.0)
    else:
        # g vanishes at theta = pi (the q-independent root x = -1); its sign
        # just below pi is that of g / (pi - theta) -> (-1)^((N-1)/2) (1 + N q2g / 2),
        # so an in-band level inside the last grid cell still shows a sign change
        gv[-1] = (1.0 if (N // 2) % 2 == 0 else -1.0) * (1.0 + N * q2g / 2.0)

    i = np.nonzero(np.sign(gv[:-1]) * np.sign(gv[1:]) < 0)[0]
    polished = _safeguarded_newton(lambda th: _inband_g(th, N, q2g),
                                   lambda th: _inband_g_deriv(th, N, q2g),
                                   theta[i], theta[i + 1], gv[i])
    th = np.concatenate([polished, theta[1:-1][gv[1:-1] == 0.0]])
    if N % 2 == 1:
        # theta = pi belongs to the q-independent factor (x = -1) for odd N
        th = th[np.abs(th - np.pi) > 1e-9]
    th = np.sort(th)
    gp = _inband_g_deriv(th, N, q2g)
    xs = np.cos(th)
    fs = np.sin(th) * np.cos((N / 2.0 - d) * th) / gp
    deflated = np.abs(gp)

    # Bound states: q > 0 splits one level above x = +1, q < 0 below x = -1
    # (for odd N only once |q|/2gamma exceeds 2/N).
    if q2g > 0.0:
        mu = _bound_state_mu(N, q2g)
        fb, dscale = _bound_residue_positive(N, d, q2g, mu)
        xb = math.cosh(mu)
    elif N % 2 == 0:
        mu = _bound_state_mu(N, -q2g)
        fb, dscale = _bound_residue_negative_even(N, d, q2g, mu)
        xb = -math.cosh(mu)
    else:
        mu = _bound_state_mu_odd_negative(N, -q2g)
        if mu is not None:
            fb, dscale = _bound_residue_negative_odd(N, d, q2g, mu)
            xb = -math.cosh(mu)
    if mu is not None:
        xs, fs, deflated = np.append(xs, xb), np.append(fs, fb), np.append(deflated, abs(dscale))
    kinds = np.full(xs.size, PoleClass.IN_BAND, dtype=np.int8)
    kinds[th.size:] = PoleClass.BOUND_STATE

    expected = N // 2 + 1 if N % 2 == 0 else (N + 1) // 2
    if xs.size != expected:
        raise PoleCountMismatch(
            f"found {xs.size} q-dependent roots for N={N}, q/2gamma={q2g}; expected {expected}")

    bad = deflated < deriv_tol * np.max(deflated)
    if bad.any():
        raise NonSimplePole(f"denominator derivative vanishes near x = {xs[bad].tolist()}")

    # q-independent factor: odd Chebyshev nodes (plus x = -1 for odd N).
    # The numerator shares these roots, so the residues are exactly zero.
    _, x_nodes = strong_defect_nodes(N)
    if N % 2 == 1:
        x_nodes = np.append(x_nodes, -1.0)
    xs = np.concatenate([xs, x_nodes])
    fs = np.concatenate([fs, np.zeros(x_nodes.size)])
    kinds = np.concatenate([kinds, np.full(x_nodes.size, PoleClass.DISCARDED, dtype=np.int8)])

    fmax = np.max(np.abs(fs)) if fs.size else 0.0
    small = np.abs(fs) < f_tol * fmax
    kinds = np.where(small, np.int8(PoleClass.DISCARDED), kinds)

    order = np.argsort(xs)
    poles = PoleSet(xs[order], fs[order], kinds[order])

    if validate is not None:
        oracle_x = np.sort(np.asarray(validate()))
        mine = poles.x_retained
        if oracle_x.size != mine.size:
            raise PoleCountMismatch(
                f"retained {mine.size} poles but the spectrum oracle has {oracle_x.size}")
        if np.max(np.abs(oracle_x - mine) / (1.0 + np.abs(oracle_x))) > 1e-8:
            raise PoleCountMismatch("retained pole positions disagree with the spectrum oracle")
    return poles
