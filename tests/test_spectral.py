import dataclasses

import numpy as np
import pytest

from defectchain.errors import NotConverged, PoleCountMismatch
from defectchain.lattice import LatticeSpec, periodic_distance
from defectchain.oracle import check_defect_roots, defect_decomposition, green_laplace
from defectchain.single_defect import DefectSpec, build_defect_system
from defectchain.spectral import (_gaps_theta, _level_gap_factors,
                                 _safeguarded_newton, find_poles)


def _poles(spec, q):
    return find_poles(spec.N, q / (2.0 * spec.gamma))


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
    gaps[np.arange(poles.x.size), poles.level] = poles.offset
    terms = s * w / gaps
    return np.abs(1.0 - terms.sum(axis=1)) / (1.0 + np.abs(terms).sum(axis=1))


def _odd_nodes(N):
    """The odd nodes x_k = cos(pi (2k - 1) / N), k = 1..N/2."""
    return np.cos(np.pi * (2 * np.arange(1, N // 2 + 1) - 1) / N)


def test_strong_defect_nodes():
    # the infinite-strength series runs over the nodes x_k = cos(pi (2k - 1) / N), k <= N/2
    assert np.allclose(_odd_nodes(4), [np.sqrt(2) / 2, -np.sqrt(2) / 2])
    assert np.allclose(_odd_nodes(3), [0.5])
    x50 = _odd_nodes(50)
    assert x50.size == 25
    assert np.all(np.diff(x50) < 0) and np.all(np.abs(x50) < 1.0)
    # they are the zeros of g(0; x), where the in-band roots of 1 = s g(0; x) go as s -> inf
    for N in (3, 4, 50, 51):
        nodes = np.sort(_odd_nodes(N))
        assert np.max(np.abs(find_poles(N, 1e9).x[:-1] - nodes)) < 1e-8


def test_find_poles_against_spectrum_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        N = int(rng.integers(4, 60))
        gamma = float(rng.uniform(0.5, 2.0))
        q = float(rng.uniform(-10, 10)) or 0.5
        n0, nd = int(rng.integers(0, N)), int(rng.integers(0, N))
        spec = LatticeSpec(N, gamma, n0)
        d = periodic_distance(nd, n0, N)
        poles = find_poles(N, q / (2.0 * gamma))
        # the roots plus the odd free levels are the dense spectrum
        dense = np.sort(defect_decomposition(spec, nd, q).eigenvalues / (-2.0 * gamma))
        assert np.allclose(_spectrum_from_poles(N, poles), dense, rtol=0.0, atol=1e-12)
        # sum rule: sum_j v_j(nd) v_j(n0) = delta_{d,0} over the even modes (the odd
        # ones vanish on nd), read from the weight rows W_jn = v_j(n) v_j(n0) at n = nd
        system = build_defect_system(spec, DefectSpec(nd, q))
        assert np.array_equal(system.x, poles.x)
        assert abs(system.rows.column(nd).sum() - (1.0 if d == 0 else 0.0)) < 1e-9
        assert poles.x.size == N // 2 + 1


def test_find_poles_polish_residual():
    spec = LatticeSpec(30, 1.0, 4)
    for q in (0.3, -2.0, 7.0, 300.0):
        poles = _poles(spec, q)
        assert np.all(_secular_residual(30, q / 2.0, poles) < 1e-14)


def test_find_poles_small_q_continuity():
    # q -> 0+: every pole sits next to its level, shifted by first-order
    # perturbation theory, s |v_k(nd)|^2 = s w_k (1/N for a single level, 2/N doubled)
    N, s = 6, 0.5e-9
    poles = find_poles(N, s)
    k = np.arange(N // 2 + 1)
    assert np.array_equal(np.sort(poles.level), k)
    w = np.where((poles.level == 0) | (2 * poles.level == N), 1.0, 2.0) / N
    assert np.max(np.abs(poles.offset / (s * w) - 1.0)) < 1e-6
    assert np.max(np.abs(poles.x - np.cos(2.0 * np.pi * poles.level / N))) < 1e-9


def test_find_poles_continuity_under_strength_steps():
    # each pole moves by ~ ds v_j(nd)^2 between nearby strengths (Hellmann-Feynman),
    # v_j(nd)^2 being the weight W_j,nd for a start on the defect; every step agrees
    # with eigvalsh
    N, nd = 14, 8
    spec = LatticeSpec(N, 1.0, nd)
    prev = None
    for q in np.linspace(1.0, 1.2, 9):
        s = float(q) / 2.0
        system = build_defect_system(spec, DefectSpec(nd, float(q)))
        assert np.allclose(_spectrum_from_poles(N, find_poles(N, s)),
                           np.linalg.eigvalsh(_ring_x(N, nd, s)), atol=1e-13)
        if prev is not None:
            predicted = np.abs(s - prev_s) * prev.rows.column(nd)
            assert np.all(np.abs(system.x - prev.x) <= 2.0 * predicted + 1e-12)
        prev, prev_s = system, s


def test_find_poles_bound_state_window():
    spec = LatticeSpec(50, 1.0, 2)
    poles = _poles(spec, 20.0)
    bound = poles.x[np.abs(poles.x) > 1.0]
    assert bound.size == 1
    assert 1.0 < bound[0] <= 1.0 + 20.0 / 2.0     # Gershgorin-type window
    # attractive vs repulsive side
    bound_neg = _poles(spec, -20.0)
    b = bound_neg.x[np.abs(bound_neg.x) > 1.0]
    assert b.size == 1 and b[0] < -1.0


def test_find_poles_odd_N_shallow_negative_q_keeps_level_in_band():
    # for odd N the repulsive level leaves the band only past |q| = 4 gamma / N
    spec = LatticeSpec(9, 1.0, 0)
    assert np.sum(np.abs(_poles(spec, -0.2).x) > 1.0) == 0
    assert np.sum(np.abs(_poles(spec, -3.0).x) > 1.0) == 1


def test_find_poles_errors(monkeypatch):
    spec = LatticeSpec(8, 1.0, 0)
    with pytest.raises(ValueError):
        _poles(spec, 0.0)
    # roots that disagree with the dense spectrum must raise in check_defect_roots
    import defectchain.single_defect as sd
    dec = defect_decomposition(spec, 3, 1.0)
    check_defect_roots(build_defect_system(spec, DefectSpec(3, 1.0)), dec)
    def shifted(*args):
        poles = find_poles(*args)
        return dataclasses.replace(poles, x=poles.x + 1e-6)
    monkeypatch.setattr(sd, "find_poles", shifted)
    with pytest.raises(PoleCountMismatch):
        check_defect_roots(build_defect_system(spec, DefectSpec(3, 1.0)), dec)
    # odd N at q / 2 gamma = -2/N: the repulsive level sits on x = -1, a simple root
    poles = _poles(LatticeSpec(5, 1.0, 0), -4.0 / 5.0)
    assert poles.x.size == 3 and np.min(np.abs(poles.x + 1.0)) < 1e-15
    assert np.allclose(_spectrum_from_poles(5, poles),
                       np.linalg.eigvalsh(_ring_x(5, 2, -0.4)), atol=1e-14)


@pytest.mark.parametrize("N", [3, 4, 5, 50, 51, 200, 2000])
def test_find_poles_strength_axis_matches_scalar(N):
    # one batched solve gives every strength the bits it gets alone
    rng = np.random.default_rng(N)
    s = rng.choice([-1.0, 1.0], 24) * 10.0 ** rng.uniform(-12.0, 8.0, 24)
    s = np.concatenate([s, [1e-12, -1e-12, 1e8, -1e8, 0.3, -0.3, 0.3]])
    if N % 2:
        s = np.append(s, -2.0 / N)          # the repulsive root on x = -1
    batch = find_poles(N, s)
    assert batch.x.shape == batch.level.shape == batch.offset.shape == (s.size, N // 2 + 1)
    for i, si in enumerate(s):
        alone = find_poles(N, si)
        assert np.array_equal(batch.x[i], alone.x)
        assert np.array_equal(batch.level[i], alone.level)
        assert np.array_equal(batch.offset[i], alone.offset)


def test_find_poles_strength_axis_errors():
    with pytest.raises(ValueError, match="nonzero"):
        find_poles(10, np.array([0.5, 0.0, -2.0]))
    for bad in (np.nan, np.inf, np.array([0.5, -np.inf])):
        with pytest.raises(ValueError, match="finite"):
            find_poles(10, bad)
    with pytest.raises(ValueError):
        find_poles(10, np.ones((2, 2)))
    assert find_poles(10, np.array([], dtype=float)).x.shape == (0, 6)


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


def test_batched_newton_raises_for_a_root_still_running_after_max_iter():
    # Newton on z^2 - 2 from the midpoint of (0, 10) needs six sweeps, not three
    fn = lambda idx, z: (z * z - 2.0, 2.0 * z)
    lo, hi, pos = np.zeros(2), np.full(2, 10.0), np.zeros(2, dtype=bool)
    with pytest.raises(NotConverged, match="2 roots"):
        _safeguarded_newton(fn, lo, hi, pos, max_iter=3)
    assert np.allclose(_safeguarded_newton(fn, lo, hi, pos), np.sqrt(2.0), rtol=1e-15)


@pytest.mark.parametrize("N", [3, 9, 129, 301])
def test_odd_N_level_inside_last_grid_cell(N):
    # just above q / 2 gamma = -2/N the repulsive level sits in band, within
    # pi / (8N) of theta = pi, next to the odd node x = -1
    for gap in (1e-2, 1e-4, 1e-6):
        q2g = -2.0 / N * (1.0 - gap)
        poles = find_poles(N, q2g)
        assert np.sum(np.abs(poles.x) > 1.0) == 0 and poles.x.size == N // 2 + 1
        levels = np.linalg.eigvalsh(_ring_x(N, 1, q2g))
        assert np.max(np.min(np.abs(poles.x[:, None] - levels), axis=1)) < 1e-10


@pytest.mark.parametrize("edge", [0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-2, -1e-2])
@pytest.mark.parametrize("N", [3, 5, 9, 129, 301])
def test_odd_N_band_edge_matches_eigvalsh(N, edge):
    # 1 + N q / 4 gamma = edge: the repulsive level crosses x = -1 at edge = 0,
    # where the old denominator had a double root; the secular equation has none
    s = 2.0 * (edge - 1.0) / N
    poles = find_poles(N, s)
    assert poles.x.size == N // 2 + 1 and np.sum(np.abs(poles.x) > 1.0) == (edge < 0)
    want = np.linalg.eigvalsh(_ring_x(N, 0, s))
    assert np.max(np.abs(_spectrum_from_poles(N, poles) - want)) < 1e-10 * (1.0 + abs(s))
    assert np.all(_secular_residual(N, s, poles) < 1e-13)


@pytest.mark.parametrize("N", [3, 4, 7, 50, 51, 200])
def test_gaps_theta_keep_relative_accuracy(N):
    # x - c_k at x = cos(pi j / N), against mpmath: each gap, the own
    # level's too, to a few ulps of itself (a zero gap is exactly zero)
    import mpmath
    mpmath.mp.dps = 40
    k = np.arange(N // 2 + 1)
    for j in (0, 1, N - 1, N, N + 1, 2 * N - 1, 2 * N, 3 * N + 2, -N):
        got = _gaps_theta(j, N)
        x = mpmath.cos(mpmath.pi * j / N)
        want = np.array([float(x - mpmath.cos(2 * mpmath.pi * int(kk) / N)) for kk in k])
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want) + 1e-30), j


def _gaps_gathered(j, N):
    """The gap table by element-wise gathers from the reduced sine table:
    -2 sin(pi (j + 2k) / 2N) sin(pi (j - 2k) / 2N), j a column."""
    r = np.arange(-N, 5 * N + 1)
    r = np.where(r > 2 * N, r - 4 * N, r)
    sin_a = np.sin(np.pi * np.where(np.abs(r) > N, np.sign(r) * 2 * N - r, r) / (2 * N))
    jm, k2 = np.asarray(j) % (4 * N) + N, 2 * np.arange(N // 2 + 1)
    return -2.0 * sin_a[jm + k2] * sin_a[jm - k2]


@pytest.mark.parametrize("N", [2, 3, 4, 5, 7, 50, 199, 200, 799, 800, 2000])
def test_gaps_theta_rows_equal_the_gathered_table(N):
    # the strided windows are the gathered entries, bit for bit, for the
    # level table, odd j and j outside [0, 2N), in a batch and alone
    k = np.arange(N // 2 + 1)
    for j in (2 * k, np.arange(-3 * N - 1, 9 * N, 7)):
        got = _gaps_theta(j, N)
        assert got.shape == (j.size, k.size) and np.array_equal(got, _gaps_gathered(j[:, None], N))
        assert all(np.array_equal(_gaps_theta(jj, N), got[i]) for i, jj in enumerate(j[:5].tolist()))


def test_one_defect_levels_are_one_descending_list():
    # root j of every one-defect system is solved from level K - j, whatever
    # N and the strength: the row pass reads its gaps from this
    s = np.array([1e-12, 1.0, 1e8])
    for N in [*range(3, 65), 199, 200, 799, 2000, 2001]:
        level = find_poles(N, np.concatenate([s, -s])).level
        assert np.array_equal(2 * level, np.broadcast_to(2 * np.arange(N // 2, -1, -1), level.shape)), N


@pytest.mark.parametrize("N", [2, 3, 4, 5, 7, 50, 199, 200, 799, 800, 2000, 2001])
def test_level_gap_factors_give_the_gathered_gaps(N):
    # -2 A B over the two read-only windows is _gaps_theta at every level, bit for bit
    A, B = _level_gap_factors(N)
    assert A.shape == B.shape == (N // 2 + 1, N // 2 + 1) and not (A.flags.writeable or B.flags.writeable)
    assert np.array_equal(-2.0 * A * B, _gaps_theta(2 * np.arange(N // 2, -1, -1), N))
