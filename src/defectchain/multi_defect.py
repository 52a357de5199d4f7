"""Several on-site defects: the resolvent linear system for any defect
count, and the fully expanded two-defect solution with exact time-domain
inversion.

For two defects the Laplace-domain denominator

    Q(x) = D(x)^2 - ((q1+q2)/2g) D(x) [T_N(x)+1]
           - (q1 q2 / 4g^2) { [T_{N-a}(x)+T_a(x)]^2 - [T_N(x)+1]^2 },

D = (x^2-1) U_{N-1}, a = ring distance between the defects, carries the
factor T_N + 1 identically: Q = 2 (T_N + 1) B with

    B(x) = (1-x^2)(1-T_N)/2 - ((q1+q2)/4g) D - (q1 q2 / 8g^2)(T_{|N-2a|} - T_N).

The odd-node double roots of T_N + 1 cancel against the numerators, so the
defect-site wave functions are proper rational functions M_k / B with
deg B = N + 2.  B always has zero-residue roots at x = +-1; everything
else is a physical pole.  Root search brackets the trigonometric /
hyperbolic forms of B, with a Chebyshev colleague-matrix fallback when the
count comes up short (near-degenerate pairs from symmetric defect
placements), and an order-2 residue branch for genuine double roots.
Bisection runs element-wise over all brackets of one form at once, and the
residues evaluate each Chebyshev series once on the array of roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .errors import DuplicateDefectSite, PoleCountMismatch, SingularResolvent
from .homogeneous import green_profile, green_profiles, time_blocks
from .lattice import LatticeSpec, periodic_distance, site_index
from .single_defect import DefectSpec, _check_normalized
from .spectral import green_laplace


def _as_defects(defects) -> tuple[DefectSpec, ...]:
    out = []
    for d in defects:
        out.append(d if isinstance(d, DefectSpec) else DefectSpec(*d))
    return tuple(out)


def resolvent_matrix(defects: Sequence[DefectSpec], spec: LatticeSpec, eps) -> np.ndarray:
    """M_ij = delta_ij - i q_j G(n_di, n_dj, eps)."""
    defects = _as_defects(defects)
    n = len(defects)
    M = np.eye(n, dtype=complex)
    for i, di in enumerate(defects):
        for j, dj in enumerate(defects):
            M[i, j] -= 1j * dj.q * green_laplace(spec, di.nd, dj.nd, eps)
    return M


def resolvent_solve(defects: Sequence[DefectSpec], spec: LatticeSpec, eps) -> np.ndarray:
    """Defect-site wave functions psi(n_dk, n0, eps) from the linear system."""
    defects = _as_defects(defects)
    sites = [site_index(d.nd, spec.N) for d in defects]
    if len(set(sites)) != len(sites):
        raise DuplicateDefectSite(f"defect sites {sites} are not distinct")
    M = resolvent_matrix(defects, spec, eps)
    G = np.array([green_laplace(spec, d.nd, spec.n0, eps) for d in defects])
    det = np.linalg.det(M)
    # natural size of det from the pre-cancellation entry magnitudes
    # (identity plus couplings); |det| far below it means eps sits on a
    # pole of the defected system and the solve carries no accuracy
    scale = float(np.prod(1.0 + np.abs(M - np.eye(len(defects))).sum(axis=1)))
    if abs(det) < 1e-10 * max(scale, 1e-300):
        raise SingularResolvent(f"|det M| = {abs(det):.3e} at eps = {eps}")
    return np.linalg.solve(M, G)


def psi_laplace_resolvent(defects: Sequence[DefectSpec], spec: LatticeSpec, n: int, eps) -> complex:
    """Full Laplace-domain wave function at site n via the resolvent route."""
    defects = _as_defects(defects)
    psi_d = resolvent_solve(defects, spec, eps)
    out = green_laplace(spec, n, spec.n0, eps)
    for d, pd in zip(defects, psi_d):
        out = out + 1j * d.q * green_laplace(spec, n, d.nd, eps) * pd
    return complex(out)


def _cheb_T(m: int) -> np.ndarray:
    c = np.zeros(m + 1)
    c[m] = 1.0
    return c


def _cheb_U(m: int) -> np.ndarray:
    """U_m in the T basis; U_{-1} = 0."""
    if m < 0:
        return np.zeros(1)
    c = np.zeros(m + 1)
    c[m::-2] = 2.0
    if m % 2 == 0:
        c[0] = 1.0
    return c


def _tpair(N: int, b: int) -> np.ndarray:
    """T_{N-b} + T_b."""
    return npcheb.chebadd(_cheb_T(N - b), _cheb_T(b))


_ONE_MINUS_X2 = np.array([0.5, 0.0, -0.5])


@dataclass(frozen=True)
class TwoDefectRational:
    """Chebyshev-basis polynomials for the two-defect Laplace solution.

    Coefficient arrays (T basis): full denominator cQ, deflated denominator
    cB, and the deflated defect-site numerators cM1, cM2 with
    psi(n_dk, n0, eps) = M_k(x) / (4 i gamma B(x)).
    """

    spec: LatticeSpec
    d1: int
    d2: int
    q1: float
    q2: float
    a: int           # dist(d1, d2)
    b1: int          # dist(d1, n0)
    b2: int          # dist(d2, n0)
    cQ: np.ndarray
    cB: np.ndarray
    cM1: np.ndarray
    cM2: np.ndarray

    @classmethod
    def build(cls, defects: Sequence[DefectSpec], spec: LatticeSpec) -> "TwoDefectRational":
        defects = _as_defects(defects)
        if len(defects) != 2:
            raise ValueError(f"need exactly two defects, got {len(defects)}")
        (d1, q1), (d2, q2) = (defects[0].nd, defects[0].q), (defects[1].nd, defects[1].q)
        N, gamma = spec.N, spec.gamma
        d1, d2 = site_index(d1, N), site_index(d2, N)
        if d1 == d2:
            raise DuplicateDefectSite(f"both defects on site {d1}")
        a = periodic_distance(d1, d2, N)
        b1 = periodic_distance(d1, spec.n0, N)
        b2 = periodic_distance(d2, spec.n0, N)

        D = npcheb.chebmul(np.array([-0.5, 0.0, 0.5]), _cheb_U(N - 1))   # (x^2-1) U_{N-1}
        tn1 = npcheb.chebadd(_cheb_T(N), _cheb_T(0))                     # T_N + 1
        cB = npcheb.chebsub(
            npcheb.chebsub(
                0.5 * npcheb.chebmul(_ONE_MINUS_X2, npcheb.chebsub(_cheb_T(0), _cheb_T(N))),
                ((q1 + q2) / (4.0 * gamma)) * D),
            (q1 * q2 / (8.0 * gamma ** 2)) * npcheb.chebsub(_cheb_T(abs(N - 2 * a)), _cheb_T(N)))
        cQ = 2.0 * npcheb.chebmul(tn1, cB)

        def numerator(b_self: int, b_other: int, q_other: float) -> np.ndarray:
            usum = npcheb.chebadd(_cheb_U(N - b_self - 1), _cheb_U(b_self - 1))
            lead = -1.0 * npcheb.chebmul(_ONE_MINUS_X2, usum)
            coupling = npcheb.chebsub(
                _tpair(N, b_self),
                npcheb.chebadd(_cheb_T(N - a - b_other), _cheb_T(abs(a - b_other))))
            return npcheb.chebsub(lead, (q_other / (2.0 * gamma)) * coupling)

        return cls(spec, d1, d2, q1, q2, a, b1, b2, cQ, cB,
                   numerator(b1, b2, q2), numerator(b2, b1, q1))

    # -- evaluators ---------------------------------------------------------

    def Q(self, x):
        return npcheb.chebval(x, self.cQ)

    def B(self, x):
        return npcheb.chebval(x, self.cB)

    def M(self, k: int, x):
        return npcheb.chebval(x, self.cM1 if k == 0 else self.cM2)

    def P_coupling(self, k: int, x):
        """P_{n_dk}(x) = [T_{N-bk} + T_bk][T_N + 1] - [T_{N-a} + T_a][T_{N-bj} + T_bj]."""
        N = self.spec.N
        b_self, b_other = (self.b1, self.b2) if k == 0 else (self.b2, self.b1)
        tp = lambda b: npcheb.chebval(x, _tpair(N, b))
        return tp(b_self) * (npcheb.chebval(x, _cheb_T(N)) + 1.0) - tp(self.a) * tp(b_other)

    def interference_numerator(self, k: int, n: int, x):
        """R_alpha(x) = [T_{N-|alpha-n|} + T_{|alpha-n|}][T_{N-|alpha-n0|} + T_{|alpha-n0|}] / 4 gamma^2."""
        N, gamma = self.spec.N, self.spec.gamma
        alpha = self.d1 if k == 0 else self.d2
        bn = periodic_distance(alpha, n, N)
        b0 = periodic_distance(alpha, self.spec.n0, N)
        return (npcheb.chebval(x, _tpair(N, bn)) * npcheb.chebval(x, _tpair(N, b0))
                / (4.0 * gamma ** 2))

    def psi_laplace(self, n: int, eps) -> complex:
        """Closed-form psi(n, n0, eps); equals the resolvent assembly exactly."""
        spec = self.spec
        gamma = spec.gamma
        x = np.asarray(eps) / (2j * gamma)
        Q = self.Q(x)
        out = green_laplace(spec, n, spec.n0, eps)
        out = out - 1j / (4.0 * gamma ** 2) / Q * (
            self.q1 * 4.0 * gamma ** 2 * self.interference_numerator(0, n, x)
            + self.q2 * 4.0 * gamma ** 2 * self.interference_numerator(1, n, x))
        out = out - (self.q1 * self.q2 / (4.0 * gamma ** 2)) / Q * (
            self.P_coupling(0, x) * green_laplace(spec, n, self.d1, eps)
            + self.P_coupling(1, x) * green_laplace(spec, n, self.d2, eps))
        return complex(out)

    def defect_site_laplace(self, k: int, eps) -> complex:
        """psi(n_dk, n0, eps) from the deflated rational form M_k / (4 i gamma B)."""
        x = np.asarray(eps) / (2j * self.spec.gamma)
        return complex(self.M(k, x) / (4j * self.spec.gamma * self.B(x)))


def _bracket_bisect(fn, lo, hi, flo, iters=90):
    """Roots of fn by bisection, one per bracket [lo, hi] with a sign change,
    element-wise; an element stops early where fn is exactly zero at its
    midpoint."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    positive = np.asarray(flo) > 0
    shape = lo.shape
    root = (0.5 * (lo + hi)).reshape(-1)
    idx = np.arange(root.size).reshape(shape)
    for _ in range(iters):
        if idx.size == 0:
            break
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        hit = fm == 0.0
        if hit.any():
            root[idx[hit]] = mid[hit]
            run = ~hit
            idx, lo, hi, mid, fm, positive = (idx[run], lo[run], hi[run], mid[run],
                                              fm[run], positive[run])
        keep_lo = (fm > 0) == positive
        lo = np.where(keep_lo, mid, lo)
        hi = np.where(keep_lo, hi, mid)
    root[idx] = 0.5 * (lo + hi)
    return root.reshape(shape)


def _b_trig(theta, N, a, s_q, p_q):
    """B(cos theta) with s_q = (q1+q2)/2gamma, p_q = q1 q2 / 4 gamma^2."""
    half = N * theta / 2.0
    return (np.sin(theta) ** 2 * np.sin(half) ** 2
            + s_q * np.sin(theta) * np.sin(half) * np.cos(half)
            - p_q * (np.cos((N / 2.0 - a) * theta) ** 2 - np.cos(half) ** 2))


def _sh(z):
    return 0.5 * (1.0 - np.exp(-2.0 * z))     # sinh(z) e^{-z}


def _ch(z):
    return 0.5 * (1.0 + np.exp(-2.0 * z))     # cosh(z) e^{-z}


def _b_hyper_scaled(mu, side, N, a, s_q, p_q):
    """B(side * cosh mu) * exp(-(N+2) mu), overflow-safe for any strength."""
    e1 = np.exp(-mu)
    core = _sh((N - a) * mu) * _sh(a * mu) * e1 * e1
    if side > 0:
        return (_sh(mu) ** 2 * _sh(N * mu / 2.0) ** 2
                - s_q * _sh(mu) * _sh(N * mu / 2.0) * _ch(N * mu / 2.0) * e1
                + p_q * core)
    if N % 2 == 0:
        return (_sh(mu) ** 2 * _sh(N * mu / 2.0) ** 2
                + s_q * _sh(mu) * _sh(N * mu / 2.0) * _ch(N * mu / 2.0) * e1
                + p_q * core)
    return (-_sh(mu) ** 2 * _ch(N * mu / 2.0) ** 2
            - s_q * _sh(mu) * _sh(N * mu / 2.0) * _ch(N * mu / 2.0) * e1
            - p_q * core)


@dataclass(frozen=True)
class TwoDefectSystem:
    """Pole data for the two-defect inversion.

    weights[k, m] multiplies exp(2 i gamma x_m t) in psi(n_dk, n0, t);
    ramp_weights[k, m] multiplies t exp(2 i gamma x_m t) (order-2 poles only).
    """

    rational: TwoDefectRational
    x: np.ndarray
    order: np.ndarray
    weights: np.ndarray
    ramp_weights: np.ndarray


def _find_b_roots(rat: TwoDefectRational, grid_density: int = 16):
    """Real roots of B by bracketing; colleague-matrix fallback on a short count."""
    spec = rat.spec
    N, gamma = spec.N, spec.gamma
    s_q = (rat.q1 + rat.q2) / (2.0 * gamma)
    p_q = rat.q1 * rat.q2 / (4.0 * gamma ** 2)
    window = (abs(rat.q1) + abs(rat.q2)) / (2.0 * gamma) + 1.0

    roots = [np.array([1.0, -1.0])]          # always zero-residue roots of B
    theta = np.linspace(0.0, np.pi, grid_density * N + 1)[1:-1]
    bv = _b_trig(theta, N, rat.a, s_q, p_q)
    i = np.nonzero(np.sign(bv[:-1]) * np.sign(bv[1:]) < 0)[0]
    th = _bracket_bisect(lambda t: _b_trig(t, N, rat.a, s_q, p_q), theta[i], theta[i + 1], bv[i])
    roots += [np.cos(th), np.cos(theta[bv == 0.0])]

    mu_max = math.acosh(1.0 + window) + 0.5
    mu = np.geomspace(1e-7, mu_max, 160)
    for side in (+1, -1):
        hv = _b_hyper_scaled(mu, side, N, rat.a, s_q, p_q)
        i = np.nonzero(np.sign(hv[:-1]) * np.sign(hv[1:]) < 0)[0]
        m = _bracket_bisect(lambda v, side=side: _b_hyper_scaled(v, side, N, rat.a, s_q, p_q),
                            mu[i], mu[i + 1], hv[i])
        # at most a few bound states per side; math.cosh keeps their last bits
        roots.append(np.array([side * math.cosh(v) for v in m]))

    expected = N + 2
    clusters = _cluster_roots(np.concatenate(roots))
    total = sum(o for _, o in clusters)
    if total != expected:
        # colleague-matrix fallback: exact Chebyshev companion eigenvalues of B
        rr = npcheb.chebroots(rat.cB)
        real = rr[np.abs(rr.imag) < 1e-7 * (1.0 + np.abs(rr.real))].real
        real = real[np.abs(real) <= 1.0 + window + 0.5]
        clusters = _cluster_roots(real)
        total = sum(o for _, o in clusters)
        if total != expected:
            raise PoleCountMismatch(
                f"two-defect denominator: found {total} roots, expected {expected}")
    return clusters


def _cluster_roots(roots: np.ndarray, tol: float = 2e-7):
    """Sorted (position, multiplicity) clusters; multiplicity capped at 2."""
    if roots.size == 0:
        return []
    rs = np.sort(roots)
    clusters = []
    start = 0
    for i in range(1, rs.size + 1):
        if i == rs.size or rs[i] - rs[i - 1] > tol * (1.0 + abs(rs[i])):
            group = rs[start:i]
            clusters.append((float(group.mean()), len(group)))
            start = i
    if any(o > 2 for _, o in clusters):
        raise PoleCountMismatch(f"root cluster of order > 2 in {clusters}")
    return clusters


def build_two_defect_system(defects: Sequence[DefectSpec], spec: LatticeSpec) -> TwoDefectSystem:
    rat = TwoDefectRational.build(defects, spec)
    clusters = _find_b_roots(rat)
    gamma = spec.gamma
    cBd = npcheb.chebder(rat.cB)
    cBdd = npcheb.chebder(cBd)
    cBddd = npcheb.chebder(cBdd)
    cMd = [npcheb.chebder(rat.cM1), npcheb.chebder(rat.cM2)]

    x = np.array([x0 for x0, _ in clusters])
    order = np.array([o for _, o in clusters], dtype=int)
    simple, double = order == 1, order == 2
    m0 = np.array([rat.M(0, x), rat.M(1, x)])                       # (2, K)
    weights = np.zeros((2, x.size), dtype=complex)
    ramp = np.zeros((2, x.size), dtype=complex)
    weights[:, simple] = m0[:, simple] / (2.0 * npcheb.chebval(x[simple], cBd))
    x2, m2 = x[double], m0[:, double]
    beta2 = npcheb.chebval(x2, cBdd) / 2.0
    beta3 = npcheb.chebval(x2, cBddd) / 6.0
    m1 = np.array([npcheb.chebval(x2, c) for c in cMd])
    weights[:, double] = m1 / (2.0 * beta2) - m2 * beta3 / (2.0 * beta2 ** 2)
    ramp[:, double] = 1j * (gamma * m2 / beta2)          # real quotient first, as for scalars
    return TwoDefectSystem(rat, x, order, weights, ramp)


def defect_site_wave(system: TwoDefectSystem, k: int, t) -> np.ndarray:
    """psi(n_dk, n0, t) from the residue series (with t-linear double-root terms)."""
    t = np.asarray(t, dtype=float)
    gamma = system.rational.spec.gamma
    ph = np.exp(2j * gamma * np.multiply.outer(t, system.x))
    out = ph @ system.weights[k] + (ph * t[..., None] if t.ndim else ph * t) @ system.ramp_weights[k]
    return out if out.ndim else out[()]


def _sinc_mode_sums(gamma: float, modes: np.ndarray, x: np.ndarray, weights,
                    times: np.ndarray) -> np.ndarray:
    """sum_j E(c_k, x_j, t) w_j for every row w of `weights`, shape
    (len(weights), len(times), N), with the convolution kernel

        E(c, x, t) = exp(i gamma c t) exp(i gamma x t) t sinc(gamma (x - c) t).

    The sinc form stays exact when a pole sits on a free level (resonant
    limit sinc(0) = 1).  Two-defect pole sets do put poles there with O(1e-2)
    weights (order-2 poles within rounding of a level), where the
    single-defect partial-fraction form loses every digit."""
    c = modes[None, :, None]
    xx = x[None, None, :]
    out = np.empty((len(weights), times.size, modes.size), dtype=complex)
    for block in time_blocks(times.size, modes.size * x.size):
        tt = times[block, None, None]
        E = (np.exp(1j * gamma * c * tt) * np.exp(1j * gamma * xx * tt) * tt
             * np.sinc(gamma * (xx - c) * tt / np.pi))
        for i, w in enumerate(weights):
            out[i, block] = E @ w
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    """(e^z (z - 1) + 1) / z^2, stable near z = 0 (value 1/2)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-3
    zb = z[~small]
    out[~small] = (np.exp(zb) * (zb - 1.0) + 1.0) / zb ** 2
    zs = z[small]
    acc = np.full_like(zs, 0.5)
    term = np.ones_like(zs)
    for m in range(1, 8):
        term = term * zs / m
        acc = acc + term * (m + 1.0) / ((m + 2.0) * (m + 1.0))
    out[small] = acc
    return out


def two_defect_occupation_series(system: TwoDefectSystem, times) -> np.ndarray:
    """P_n(t) rows with two defects, shape (len(times), N); raises
    NormalizationDrift when the pole set is bad.

    psi = G + sum_k i q_k A_k with A_k(n, t) = int_0^t G(n, n_dk, t-tau)
    psi(n_dk, n0, tau) dtau: the simple poles go through the sinc kernel
    `_sinc_mode_sums`, the t-linear terms of order-2 poles add a phi2 ramp
    kernel.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rat = system.rational
    spec = rat.spec
    N, gamma = spec.N, spec.gamma
    c = np.cos(2.0 * np.pi * np.arange(N) / N)
    s = _sinc_mode_sums(gamma, c, system.x, system.weights, times)      # (2, T, N)
    if np.any(system.order == 2):
        c3 = c[None, :, None]
        delta = 2.0 * gamma * (system.x[None, None, :] - c3)
        for block in time_blocks(times.size, N * system.x.size):
            tt = times[block, None, None]
            e1 = np.exp(2j * gamma * c3 * tt) * tt * tt * _phi2(1j * delta * tt)
            for k in range(2):
                s[k, block] += e1 @ system.ramp_weights[k]
    psi = green_profiles(spec, times)
    for k, (nd, q) in enumerate(((rat.d1, rat.q1), (rat.d2, rat.q2))):
        if q != 0.0:
            psi += 1j * q * np.roll(np.fft.ifft(s[k], axis=1), nd, axis=1)
    P = psi.real ** 2 + psi.imag ** 2
    _check_normalized(P.sum(axis=1), "two-defect probability", times)
    return P


def two_defect_occupation(system: TwoDefectSystem, t: float) -> np.ndarray:
    """P_n(t) with two defects at one time."""
    return two_defect_occupation_series(system, [t])[0]


def bromwich_occupation(defects: Sequence[DefectSpec], spec: LatticeSpec, t: float, *,
                        sigma: float | None = None, omega_max: float | None = None,
                        n_omega: int | None = None) -> np.ndarray:
    """Diagnostic numeric inversion on a Bromwich contour (any defect count).

    Inverts only the defect correction psi - G (which decays like 1/s^2, so
    the contour integral converges absolutely); the free part is added back
    in the time domain.  Accuracy is set by the contour truncation; this is
    a cross-check tool, not the production path.
    """
    defects = _as_defects(defects)
    N, gamma = spec.N, spec.gamma
    if sigma is None:
        sigma = 0.5 * gamma
    if omega_max is None:
        omega_max = 600.0 * gamma + 20.0 * max(abs(d.q) for d in defects)
    if n_omega is None:
        n_omega = int(omega_max / min(0.05, 0.5 / max(t, 1e-9)))
    omega = np.linspace(-omega_max, omega_max, 2 * (n_omega // 2) + 1)
    s = sigma + 1j * omega

    Gd = np.array([[green_laplace(spec, di.nd, dj.nd, s) for dj in defects] for di in defects])
    G0 = np.array([green_laplace(spec, d.nd, spec.n0, s) for d in defects])
    nq = len(defects)
    M = np.zeros((s.size, nq, nq), dtype=complex)
    for i in range(nq):
        for j in range(nq):
            M[:, i, j] = (1.0 if i == j else 0.0) - 1j * defects[j].q * Gd[i, j]
    psi_d = np.linalg.solve(M, np.moveaxis(G0, 0, -1)[..., None])[..., 0]   # (S, nq)

    n_all = np.arange(N)
    corr = np.zeros((s.size, N), dtype=complex)
    for j, d in enumerate(defects):
        Gn = np.array([green_laplace(spec, n, d.nd, s) for n in n_all]).T     # (S, N)
        corr += 1j * d.q * Gn * psi_d[:, j][:, None]
    kernel = np.exp(s * t)[:, None] * corr
    integral = np.trapezoid(kernel, omega, axis=0) / (2.0 * np.pi)
    psi = green_profile(spec, t) + integral
    return psi.real ** 2 + psi.imag ** 2
