import dataclasses

import numpy as np
import pytest

from defectchain.errors import PoleCountMismatch
from defectchain.lattice import LatticeSpec, periodic_distance
from defectchain.oracle import defect_levels
from defectchain.single_defect import DefectSpec, build_defect_system
from defectchain.spectral import (PoleClass, _safeguarded_newton, find_poles,
                                  green_laplace)
from defectchain.strong_defect import strong_defect_nodes


def _poles(spec, nd, q):
    return find_poles(spec.N, q / (2.0 * spec.gamma), periodic_distance(nd, spec.n0, spec.N))


def _ring_x(N, nd, s):
    """The defected ring in the pole variable x = -E / 2 gamma."""
    i = np.arange(N)
    Hx = np.zeros((N, N))
    Hx[i, (i + 1) % N] = Hx[(i + 1) % N, i] = 0.5
    Hx[nd, nd] = s
    return Hx


def _spectrum_from_poles(N, poles):
    """All N levels: the poles plus one free level c_k (0 < k < N/2) per
    doubled level, the mode that vanishes on the defect site."""
    k = np.arange(1, (N - 1) // 2 + 1)
    return np.sort(np.concatenate([poles.x, np.cos(2.0 * np.pi * k / N)]))


def _secular_residual(N, s, poles):
    """|1 - s g(0; x_j)| over the scale of its terms, with each pole's own
    level gap taken from its offset."""
    k = np.arange(N // 2 + 1)
    w = np.where((k == 0) | (2 * k == N), 1.0, 2.0) / N
    gaps = poles.x[:, None] - np.cos(2.0 * np.pi * k / N)[None, :]
    gaps[np.arange(len(poles)), poles.level] = poles.offset
    terms = s * w / gaps
    return np.abs(1.0 - terms.sum(axis=1)) / (1.0 + np.abs(terms).sum(axis=1))


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
        d = periodic_distance(nd, n0, N)
        poles = find_poles(N, q / (2.0 * gamma), d)
        # the roots plus the odd free levels are the dense spectrum
        assert np.allclose(_spectrum_from_poles(N, poles), defect_levels(spec, nd, q),
                           rtol=0.0, atol=1e-12)
        # residue sum rule: sum_j v_j(nd) v_j(n0) = delta_{d,0} over the modes seen at nd
        assert abs(poles.f.sum() - (1.0 if d == 0 else 0.0)) < 1e-9
        assert len(poles) == N // 2 + 1


def test_find_poles_polish_residual():
    spec = LatticeSpec(30, 1.0, 4)
    for q in (0.3, -2.0, 7.0, 300.0):
        poles = _poles(spec, 11, q)
        assert np.all(_secular_residual(30, q / 2.0, poles) < 1e-14)


def test_find_poles_small_q_continuity():
    # q -> 0+: every pole sits next to its level, shifted by first-order
    # perturbation theory, s |v_k(nd)|^2 = s w_k (1/N for a single level, 2/N doubled)
    N, s = 6, 0.5e-9
    poles = find_poles(N, s, 2)
    k = np.arange(N // 2 + 1)
    assert np.array_equal(np.sort(poles.level), k)
    w = np.where((poles.level == 0) | (2 * poles.level == N), 1.0, 2.0) / N
    assert np.max(np.abs(poles.offset / (s * w) - 1.0)) < 1e-6
    assert np.max(np.abs(poles.x - np.cos(2.0 * np.pi * poles.level / N))) < 1e-9


def test_find_poles_continuity_under_strength_steps():
    # each pole moves by ~ ds v_j(nd)^2 between nearby strengths (Hellmann-Feynman),
    # v_j(nd)^2 being the residue for a start on the defect; every step agrees with eigvalsh
    N, nd = 14, 8
    prev = None
    for q in np.linspace(1.0, 1.2, 9):
        s = float(q) / 2.0
        x = find_poles(N, s, 0).x
        assert np.allclose(_spectrum_from_poles(N, find_poles(N, s, 0)),
                           np.linalg.eigvalsh(_ring_x(N, nd, s)), atol=1e-13)
        if prev is not None:
            predicted = np.abs(s - prev_s) * prev.f
            assert np.all(np.abs(x - prev.x) <= 2.0 * predicted + 1e-12)
        prev, prev_s = find_poles(N, s, 0), s


def test_find_poles_bound_state_window():
    spec = LatticeSpec(50, 1.0, 2)
    poles = _poles(spec, 2, 20.0)
    bound = poles.x[poles.kind == PoleClass.BOUND_STATE]
    assert bound.size == 1
    assert 1.0 < bound[0] <= 1.0 + 20.0 / 2.0     # Gershgorin-type window
    # attractive vs repulsive side
    bound_neg = _poles(spec, 2, -20.0)
    b = bound_neg.x[bound_neg.kind == PoleClass.BOUND_STATE]
    assert b.size == 1 and b[0] < -1.0


def test_find_poles_odd_N_shallow_negative_q_keeps_level_in_band():
    # for odd N the repulsive level leaves the band only past |q| = 4 gamma / N
    spec = LatticeSpec(9, 1.0, 0)
    assert _poles(spec, 3, -0.2).bound_count == 0
    assert _poles(spec, 3, -3.0).bound_count == 1


def test_find_poles_errors(monkeypatch):
    spec = LatticeSpec(8, 1.0, 0)
    with pytest.raises(ValueError):
        _poles(spec, 3, 0.0)
    # roots that disagree with the dense spectrum must raise under validate=True
    import defectchain.single_defect as sd
    build_defect_system(spec, DefectSpec(3, 1.0), validate=True)
    def shifted(*args):
        poles = find_poles(*args)
        return dataclasses.replace(poles, x=poles.x + 1e-6)
    monkeypatch.setattr(sd, "find_poles", shifted)
    with pytest.raises(PoleCountMismatch):
        build_defect_system(spec, DefectSpec(3, 1.0), validate=True)
    # odd N at q / 2 gamma = -2/N: the repulsive level sits on x = -1, a simple root
    poles = _poles(LatticeSpec(5, 1.0, 0), 2, -4.0 / 5.0)
    assert len(poles) == 3 and np.min(np.abs(poles.x + 1.0)) < 1e-15
    assert np.allclose(_spectrum_from_poles(5, poles),
                       np.linalg.eigvalsh(_ring_x(5, 2, -0.4)), atol=1e-14)


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


def _band_secular(N, s):
    """The in-band secular equation in theta offsets phi from the level of
    each half interval, on its analytic bracket (0, pi / N)."""
    K, up = N // 2, s > 0
    sig, theta = (-1.0 if up else 1.0), 2.0 * np.pi * (np.arange(K) + up) / N

    def fn(idx, phi):
        t, a = theta[idx] + sig * phi, N * phi / 2.0
        return (sig * np.sin(t) * np.sin(a) + s * np.cos(a),
                np.cos(t) * np.sin(a) + N / 2.0 * (sig * np.sin(t) * np.cos(a) - s * np.sin(a)))

    return fn, np.zeros(K), np.full(K, np.pi / N), np.full(K, up)


@pytest.mark.parametrize("N, q2g", [(7, 0.3), (50, -2.0), (200, 0.05), (201, -7.5), (800, 3e3)])
def test_batched_newton_equals_one_bracket_at_a_time(N, q2g):
    # the element-wise polish gives every root the bits it gets alone
    fn, lo, hi, pos = _band_secular(N, q2g)
    batch = _safeguarded_newton(fn, lo, hi, pos)
    single = [_safeguarded_newton(lambda idx, z, i=i: fn(idx + i, z), lo[i:i + 1], hi[i:i + 1],
                                  pos[i:i + 1])[0] for i in range(lo.size)]
    assert batch.shape == lo.shape and np.array_equal(batch, np.array(single))
    # and each is a root inside its half interval
    assert np.all((0.0 < batch) & (batch < np.pi / N))
    assert np.max(np.abs(fn(np.arange(lo.size), batch)[0])) < 1e-13 * (1.0 + abs(q2g))


def test_batched_newton_stop_rules_per_element():
    # element 0 hits fn == 0 exactly at its midpoint, element 1 has a zero
    # slope everywhere (pure bisection), element 2 is ordinary Newton
    def fn(idx, z):
        return (np.where(z < 1.5, z - 0.5, np.where(z < 3.5, np.sign(z - 2.7), z * z - 20.0)),
                np.where(z < 1.5, 1.0, np.where(z < 3.5, 0.0, 2.0 * z)))

    lo, hi = np.array([0.0, 2.0, 4.0]), np.array([1.0, 3.0, 5.0])
    pos = fn(None, lo)[0] > 0
    batch = _safeguarded_newton(fn, lo, hi, pos)
    single = [_safeguarded_newton(fn, lo[i:i + 1], hi[i:i + 1], pos[i:i + 1])[0] for i in range(3)]
    assert np.array_equal(batch, np.array(single))
    assert batch[0] == 0.5 and abs(batch[1] - 2.7) < 1e-14 and abs(batch[2] - 20.0 ** 0.5) < 1e-14


@pytest.mark.parametrize("N", [3, 9, 129, 301])
def test_odd_N_level_inside_last_grid_cell(N):
    # just above q / 2 gamma = -2/N the repulsive level sits in band, within
    # pi / (8N) of theta = pi, next to the odd node x = -1
    for gap in (1e-2, 1e-4, 1e-6):
        q2g = -2.0 / N * (1.0 - gap)
        poles = find_poles(N, q2g, 1)
        assert poles.bound_count == 0 and len(poles) == N // 2 + 1
        levels = np.linalg.eigvalsh(_ring_x(N, 1, q2g))
        assert np.max(np.min(np.abs(poles.x_retained[:, None] - levels), axis=1)) < 1e-10


@pytest.mark.parametrize("edge", [0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-2, -1e-2])
@pytest.mark.parametrize("N", [3, 5, 9, 129, 301])
def test_odd_N_band_edge_matches_eigvalsh(N, edge):
    # 1 + N q / 4 gamma = edge: the repulsive level crosses x = -1 at edge = 0,
    # where the old denominator had a double root; the secular equation has none
    s = 2.0 * (edge - 1.0) / N
    poles = find_poles(N, s, 2 % N)
    assert len(poles) == N // 2 + 1 and poles.bound_count == (edge < 0)
    want = np.linalg.eigvalsh(_ring_x(N, 0, s))
    assert np.max(np.abs(_spectrum_from_poles(N, poles) - want)) < 1e-10 * (1.0 + abs(s))
    assert np.all(_secular_residual(N, s, poles) < 1e-13)
