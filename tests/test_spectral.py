import numpy as np
import pytest

from defectchain.errors import NonSimplePole, PoleCountMismatch
from defectchain.lattice import LatticeSpec
from defectchain.oracle import defect_pole_positions
from defectchain.spectral import (ChebyshevKind, DefectDenominator, PoleClass,
                                  _inband_g, _inband_g_deriv, _safeguarded_newton,
                                  cheb_eval, cheb_u_with_derivative, find_poles,
                                  green_laplace, strong_defect_nodes)

T, U, V = ChebyshevKind.FIRST, ChebyshevKind.SECOND, ChebyshevKind.THIRD


def test_cheb_eval_examples():
    assert cheb_eval(T, 0, 0.7) == 1.0
    assert abs(cheb_eval(T, 5, np.cos(0.3)) - np.cos(1.5)) < 1e-14
    assert abs(cheb_eval(U, 3, 0.5) - (-1.0)) < 1e-14


def test_cheb_eval_trig_forms():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(0, 40))
        th = float(rng.uniform(0.05, np.pi - 0.05))
        x = np.cos(th)
        assert abs(cheb_eval(T, m, x) - np.cos(m * th)) < 1e-11
        assert abs(cheb_eval(U, m, x) - np.sin((m + 1) * th) / np.sin(th)) < 1e-10
        assert abs(cheb_eval(V, m, x) - np.cos((m + 0.5) * th) / np.cos(th / 2)) < 1e-10


@pytest.mark.parametrize("N", [3, 4, 7, 12, 25, 50])
def test_identity_banded_u(N):
    # (x^2 - 1) U_{N-1}(x) == T_{N+1}(x) - x T_N(x)
    rng = np.random.default_rng(N)
    x = rng.uniform(-1.2, 1.2, size=100)
    lhs = (x * x - 1.0) * cheb_eval(U, N - 1, x)
    rhs = cheb_eval(T, N + 1, x) - x * cheb_eval(T, N, x)
    assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-12


@pytest.mark.parametrize("N", [4, 6, 12, 50, 5, 9, 25, 55])
def test_tn_plus_one_factorization(N):
    # T_N + 1 = 2 T_{N/2}^2 (even N) and (1 + x) V_{(N-1)/2}^2 (odd N);
    # the even branch carries a factor 2 on top of the bare square
    rng = np.random.default_rng(N + 1)
    x = rng.uniform(-1.0, 1.0, size=50)
    tn1 = cheb_eval(T, N, x) + 1.0
    if N % 2 == 0:
        fac = 2.0 * cheb_eval(T, N // 2, x) ** 2
    else:
        fac = (1.0 + x) * cheb_eval(V, (N - 1) // 2, x) ** 2
    assert np.max(np.abs(tn1 - fac) / (1.0 + np.abs(tn1))) < 1e-12


def test_u_derivative_against_finite_differences():
    rng = np.random.default_rng(5)
    for m in (1, 4, 11):
        x = rng.uniform(-0.9, 0.9, size=20)
        _, du = cheb_u_with_derivative(m, x)
        h = 1e-6
        fd = (cheb_eval(U, m, x + h) - cheb_eval(U, m, x - h)) / (2 * h)
        assert np.max(np.abs(du - fd)) < 1e-4


def test_defect_denominator_examples():
    # q = 0: zeros at the Chebyshev-U nodes
    den = DefectDenominator(6, 0.0, 2)
    for k in range(1, 6):
        assert abs(den.value(np.cos(k * np.pi / 6))) < 1e-13
    den4 = DefectDenominator(4, 0.0, 1)
    u3 = cheb_eval(U, 3, 0.3)
    assert abs(den4.value(0.3) - (0.3 ** 2 - 1.0) * u3) < 1e-14
    den_band = DefectDenominator(4, 0.5, 1)
    assert abs(den_band.value(1.0) - (-1.0)) < 1e-14


def test_defect_denominator_derivative():
    den = DefectDenominator(9, 0.7, 3)
    h = 1e-6
    for x in (-0.83, 0.12, 1.4):
        fd = (den.value(x + h) - den.value(x - h)) / (2 * h)
        assert abs(den.derivative(x) - fd) < 1e-4 * max(1.0, abs(fd))


def test_strong_defect_nodes():
    theta, x = strong_defect_nodes(4)
    assert np.allclose(theta, [np.pi / 4, 3 * np.pi / 4])
    assert np.allclose(x, [np.sqrt(2) / 2, -np.sqrt(2) / 2])
    theta3, x3 = strong_defect_nodes(3)
    assert np.allclose(theta3, [np.pi / 3]) and np.allclose(x3, [0.5])
    _, x50 = strong_defect_nodes(50)
    assert x50.size == 25
    assert np.all(np.diff(x50) < 0) and np.all(np.abs(x50) < 1.0)


def test_find_poles_against_spectrum_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        N = int(rng.integers(4, 60))
        gamma = float(rng.uniform(0.5, 2.0))
        q = float(rng.uniform(-10, 10)) or 0.5
        n0, nd = int(rng.integers(0, N)), int(rng.integers(0, N))
        spec = LatticeSpec(N, gamma, n0)
        den = DefectDenominator.from_physical(spec, nd, q)
        poles = find_poles(den, validate=lambda: defect_pole_positions(spec, nd, q))
        # residue sum rule: partial fractions of P/Q give sum f_j = delta_{d,0}
        assert abs(poles.f.sum() - (1.0 if den.dist == 0 else 0.0)) < 1e-9
        assert len(poles) == N + 1


def test_find_poles_polish_residual():
    spec = LatticeSpec(30, 1.0, 4)
    for q in (0.3, -2.0, 7.0, 300.0):
        den = DefectDenominator.from_physical(spec, 11, q)
        poles = find_poles(den)
        resid = np.abs(den.value(poles.x_retained))
        scale = den.value_scale(poles.x_retained)
        assert np.all(resid < 1e-12 * np.maximum(scale, 1e-30))


def test_find_poles_small_q_continuity():
    # q -> 0+: in-band poles converge to the q = 0 factorization nodes
    spec = LatticeSpec(6, 1.0, 0)
    den = DefectDenominator.from_physical(spec, 2, 1e-9)
    got = np.sort(find_poles(den).x)
    nodes = np.sort(np.concatenate([np.cos(np.arange(1, 6) * np.pi / 6), [-1.0, 1.0]]))
    assert got.size == nodes.size
    assert np.max(np.abs(got - nodes)) < 1e-4


def test_find_poles_continuity_under_strength_steps():
    # each pole moves by ~ dq * (T_N + 1) / (2 gamma Q') between nearby strengths
    spec = LatticeSpec(14, 1.0, 3)
    qs = np.linspace(1.0, 1.2, 9)
    prev = None
    for q in qs:
        den = DefectDenominator.from_physical(spec, 8, float(q))
        poles = find_poles(den)
        x = poles.x_retained
        if prev is not None:
            dq = float(q - prev_q)
            tn1 = cheb_eval(T, spec.N, prev) + 1.0
            predicted = np.abs(dq * tn1 / (2.0 * spec.gamma * prev_den.derivative(prev)))
            moved = np.abs(x - prev)
            assert np.all(moved <= 2.0 * predicted + 1e-8)
        prev, prev_q, prev_den = x, q, den


def test_find_poles_bound_state_window():
    spec = LatticeSpec(50, 1.0, 2)
    den = DefectDenominator.from_physical(spec, 2, 20.0)
    poles = find_poles(den)
    bound = poles.x[poles.kind == PoleClass.BOUND_STATE]
    assert bound.size == 1
    assert 1.0 < bound[0] <= 1.0 + 20.0 / 2.0     # Gershgorin-type window
    # attractive vs repulsive side
    den_neg = DefectDenominator.from_physical(spec, 2, -20.0)
    bound_neg = find_poles(den_neg)
    b = bound_neg.x[bound_neg.kind == PoleClass.BOUND_STATE]
    assert b.size == 1 and b[0] < -1.0


def test_find_poles_odd_N_shallow_negative_q_keeps_level_in_band():
    # for odd N the repulsive level leaves the band only past |q| = 4 gamma / N
    spec = LatticeSpec(9, 1.0, 0)
    poles = find_poles(DefectDenominator.from_physical(spec, 3, -0.2))
    assert poles.bound_count == 0
    poles2 = find_poles(DefectDenominator.from_physical(spec, 3, -3.0))
    assert poles2.bound_count == 1


def test_find_poles_discarded_are_odd_nodes():
    spec = LatticeSpec(12, 1.0, 5)
    poles = find_poles(DefectDenominator.from_physical(spec, 7, 1.3))
    disc = np.sort(poles.x[poles.kind == PoleClass.DISCARDED])
    _, nodes = strong_defect_nodes(12)
    assert np.allclose(disc, np.sort(nodes), atol=1e-14)
    assert np.allclose(poles.f[poles.kind == PoleClass.DISCARDED], 0.0)


def test_find_poles_errors():
    spec = LatticeSpec(8, 1.0, 0)
    den = DefectDenominator.from_physical(spec, 3, 0.0)
    with pytest.raises(ValueError):
        find_poles(den)
    # an oracle that disagrees must raise
    den_ok = DefectDenominator.from_physical(spec, 3, 1.0)
    with pytest.raises(PoleCountMismatch):
        find_poles(den_ok, validate=lambda: np.array([0.0, 1.0]))
    # odd N at q / 2 gamma = -2/N: the repulsive level sits exactly on x = -1
    spec9 = LatticeSpec(5, 1.0, 0)
    with pytest.raises(NonSimplePole):
        find_poles(DefectDenominator.from_physical(spec9, 2, -4.0 / 5.0))


def test_green_laplace_matches_mode_sum():
    spec = LatticeSpec(10, 1.3, 0)
    rng = np.random.default_rng(17)
    k = np.arange(10)
    for _ in range(20):
        eps = complex(rng.uniform(0.1, 2.0), rng.uniform(-4, 4))
        a, b = int(rng.integers(0, 10)), int(rng.integers(0, 10))
        direct = np.mean(np.exp(2j * np.pi * k * (a - b) / 10)
                         / (eps - 2j * spec.gamma * np.cos(2 * np.pi * k / 10)))
        assert abs(green_laplace(spec, a, b, eps) - direct) < 1e-12 * max(1.0, abs(direct))


def _inband_brackets(N, q2g):
    theta = np.linspace(0.0, np.pi, 8 * N + 1)
    gv = _inband_g(theta, N, q2g)
    i = np.nonzero(np.sign(gv[:-1]) * np.sign(gv[1:]) < 0)[0]
    return theta[i], theta[i + 1], gv[i]


@pytest.mark.parametrize("N, q2g", [(7, 0.3), (50, -2.0), (200, 0.05), (201, -7.5), (800, 3e3)])
def test_batched_newton_equals_one_bracket_at_a_time(N, q2g):
    # the element-wise polish gives every root the bits it gets alone (0-d)
    fn = lambda th: _inband_g(th, N, q2g)
    dfn = lambda th: _inband_g_deriv(th, N, q2g)
    lo, hi, flo = _inband_brackets(N, q2g)
    batch = _safeguarded_newton(fn, dfn, lo, hi, flo)
    single = [_safeguarded_newton(fn, dfn, np.array(a), np.array(b), np.array(c))
              for a, b, c in zip(lo, hi, flo)]
    assert all(s.shape == () for s in single)
    assert batch.shape == lo.shape and np.array_equal(batch, np.array(single))


def test_batched_newton_stop_rules_per_element():
    # element 0 hits fn == 0 exactly at its midpoint, element 1 has a zero
    # slope everywhere (pure bisection), element 2 is ordinary Newton
    fn = lambda z: np.where(z < 1.5, z - 0.5, np.where(z < 3.5, np.sign(z - 2.7), z * z - 20.0))
    dfn = lambda z: np.where(z < 1.5, 1.0, np.where(z < 3.5, 0.0, 2.0 * z))
    lo, hi = np.array([0.0, 2.0, 4.0]), np.array([1.0, 3.0, 5.0])
    batch = _safeguarded_newton(fn, dfn, lo, hi, fn(lo))
    single = [_safeguarded_newton(fn, dfn, lo[i], hi[i], fn(lo[i])) for i in range(3)]
    assert np.array_equal(batch, np.array(single))
    assert batch[0] == 0.5 and abs(batch[1] - 2.7) < 1e-14 and abs(batch[2] - 20.0 ** 0.5) < 1e-14


@pytest.mark.parametrize("N", [3, 9, 129, 301])
def test_odd_N_level_inside_last_grid_cell(N):
    # just above q / 2 gamma = -2/N the repulsive level sits in band within
    # one grid cell of theta = pi, where g also has its q-independent root
    for gap in (1e-2, 1e-4, 1e-6):
        q2g = -2.0 / N * (1.0 - gap)
        spec = LatticeSpec(N, 1.0, 0)
        poles = find_poles(DefectDenominator.from_physical(spec, 1, 2.0 * q2g))
        assert poles.bound_count == 0 and len(poles) == N + 1
        i = np.arange(N)
        Hx = np.zeros((N, N))
        Hx[i, (i + 1) % N] = Hx[(i + 1) % N, i] = 0.5
        Hx[1, 1] = q2g
        levels = np.linalg.eigvalsh(Hx)
        assert np.max(np.min(np.abs(poles.x_retained[:, None] - levels), axis=1)) < 1e-10
