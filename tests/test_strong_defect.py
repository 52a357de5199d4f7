import numpy as np
import pytest

from defectchain.homogeneous import distance_powers, steady_profile
from defectchain.lattice import LatticeSpec, periodic_distance
from defectchain.oracle import SpectralDecomposition, build_hamiltonian, time_average_exact
from defectchain.single_defect import (DefectSpec, build_defect_system, phi_series,
                                       steady_corrections, steady_occupation)
from defectchain.strong_defect import (mirror_site, phi_infinite_q,
                                       steady_moments_infinite_q,
                                       steady_profile_infinite_q)


def test_phi_series_structure():
    # weights -i (4 gamma / N) F_k: F = (1/2, 1/2) and 4 gamma / N = 1 here
    series = phi_infinite_q(LatticeSpec(4, 1.0, 0), 1)
    assert np.allclose(series.weights, [-0.5j, -0.5j])
    zero = phi_infinite_q(LatticeSpec(8, 1.0, 3), 3)
    assert np.max(np.abs(zero.weights)) == 0.0
    assert abs(zero(2.2)) == 0.0
    # term counts follow the parity split
    assert phi_infinite_q(LatticeSpec(10, 1.0, 0), 3).weights.size == 5
    assert phi_infinite_q(LatticeSpec(11, 1.0, 0), 3).weights.size == 5


def test_phi_limit_of_finite_strength():
    # separations >= 2: the bound-state weight dies like 1/q and the series converge
    spec = LatticeSpec(8, 1.0, 1)
    inf = phi_infinite_q(spec, 4)
    ts = np.linspace(0.1, 5.0, 40)
    prev = None
    for q in (1e3, 1e4):
        fin = phi_series(build_defect_system(spec, DefectSpec(4, q)))
        err = float(np.max(np.abs(fin(ts) - inf(ts))))
        if prev is not None:
            assert err < prev / 5.0
        prev = err
    assert prev < 1e-3


def test_profile_spot_values_even():
    prof = steady_profile_infinite_q(LatticeSpec(50, 1.0, 22), 25)
    assert abs(prof.values[22] - 0.03) < 1e-15
    assert abs(prof.values[28] - 0.03) < 1e-15
    assert prof.values[25] == 0.0
    assert abs(prof.values[7] - 0.02) < 1e-15
    assert abs(prof.values.sum() - 1.0) < 1e-14
    assert not prof.mirror_collision


def test_profile_spot_values_odd():
    prof = steady_profile_infinite_q(LatticeSpec(55, 1.0, 30), 25)
    assert mirror_site(LatticeSpec(55, 1.0, 30), 25) == 20
    assert abs(prof.values[20] - 1.5 / 55) < 1e-15
    assert abs(prof.values[30] - 1.5 / 55) < 1e-15
    assert prof.values[25] == 0.0
    assert abs(prof.values.sum() - 1.0) < 1e-14


def test_profile_start_on_defect_localizes_completely():
    prof = steady_profile_infinite_q(LatticeSpec(20, 1.0, 7), 7)
    expect = np.zeros(20)
    expect[7] = 1.0
    assert np.array_equal(prof.values, expect)


def test_profile_mirror_collision_geometries():
    # separation N/2 on an even ring stacks both enhancements on n0;
    # the literal Kronecker algebra keeps the profile normalized
    for N in (6, 8, 12, 20):
        n0 = 1
        nd = (n0 + N // 2) % N
        prof = steady_profile_infinite_q(LatticeSpec(N, 1.0, n0), nd)
        assert prof.mirror_collision
        assert abs(prof.values[n0] - 2.0 / N) < 1e-15
        assert prof.values[nd] == 0.0
        assert abs(prof.values.sum() - 1.0) < 1e-13


def test_profile_mirror_sites_invariant_under_start_position():
    N, nd = 50, 25
    vals = []
    for n0 in range(N):
        if n0 == nd:
            continue
        spec = LatticeSpec(N, 1.0, n0)
        prof = steady_profile_infinite_q(spec, nd)
        m = mirror_site(spec, nd)
        if m not in (n0, nd):
            vals.extend([prof.values[n0], prof.values[m]])
    assert np.ptp(vals) < 1e-15
    assert abs(vals[0] - 1.5 / N) < 1e-15


def test_profile_is_the_open_chain_time_average_every_geometry():
    # infinite q cuts site nd out of the ring: the limit profile is the dense
    # time average of the open chain left behind, for every geometry
    for N in range(4, 30):
        spec = LatticeSpec(N, 1.0, 0)
        for nd in range(N):
            rest = np.delete(np.arange(N), nd)
            dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec)[np.ix_(rest, rest)])
            for i, n0 in enumerate(rest):
                got = steady_profile_infinite_q(LatticeSpec(N, 1.0, int(n0)), nd).values
                assert got[nd] == 0.0
                assert np.max(np.abs(got[rest] - time_average_exact(dec, i))) < 2e-15


def _even_part_squares(N, n0, nd):
    # sum_k e_k(n)^2 by direct summation over the free levels k = 0..N/2,
    # e_k = w_k cos(2 pi k m/N) cos(2 pi k d/N), m = n - nd, d = n0 - nd
    k = np.arange(N // 2 + 1)[:, None]
    w = np.where((k == 0) | (2 * k == N), 1.0 / N, 2.0 / N)
    m = np.arange(N)[None, :] - nd
    e = w * np.cos(2 * np.pi * k * m / N) * np.cos(2 * np.pi * k * (n0 - nd) / N)
    return np.sum(e * e, axis=0)


def _limit_level_sum(spec, nd):
    # S_n = sum_j (v_j(n) v_j(n0))^2 over the open chain's levels even about
    # nd: the basis (|nd+m> + |nd-m>)/sqrt(2), m >= 1, and |nd+N/2> on an
    # even ring, none of which touches the cut site nd
    N = spec.N
    cols = []
    for m in range(1, (N - 1) // 2 + 1):
        b = np.zeros(N)
        b[[(nd + m) % N, (nd - m) % N]] = np.sqrt(0.5)
        cols.append(b)
    if N % 2 == 0:
        b = np.zeros(N)
        b[(nd + N // 2) % N] = 1.0
        cols.append(b)
    B = np.array(cols).T
    _, U = np.linalg.eigh(B.T @ build_hamiltonian(spec) @ B)
    V = B @ U
    return np.sum((V * V[spec.n0]) ** 2, axis=1)


def test_corrections_reconstruct_profile_every_geometry():
    # the limit splits as Pbar + Ibar + Kbar: Ibar is the finite-strength one
    # (it does not depend on q), Kbar = S + sum_k e_k^2 with S from the open
    # chain's even levels; together they rebuild the limit profile
    for N in range(4, 30):
        for nd in range(0, N, max(1, N // 5)):
            for n0 in range(0, N, max(1, N // 4)):
                if nd == n0:
                    continue
                spec = LatticeSpec(N, 1.0, n0)
                I, _ = steady_corrections(build_defect_system(spec, DefectSpec(nd, 1.0)))
                K = _limit_level_sum(spec, nd) + _even_part_squares(N, n0, nd)
                P = steady_profile(spec).values + I + K
                target = steady_profile_infinite_q(spec, nd).values
                assert np.max(np.abs(P - target)) < 1e-10
                assert np.all(K >= 0.0)


def _interference_closed_form(N, n0, nd):
    # Kronecker-delta form of the limit Ibar away from mirror collisions: a
    # flat offset plus -1/N at n0 and nd (odd N) or at those two sites and
    # their antipodes (even N)
    if N % 2 == 0:
        I = np.full(N, -(N - 4.0) / N ** 2)
        sites = (n0, nd, (n0 + N // 2) % N, (nd + N // 2) % N)
    else:
        I = np.full(N, -(N - 2.0) / N ** 2)
        sites = (n0, nd)
    for s in sites:
        I[s] -= 1.0 / N
    return I


def test_interference_closed_form_and_site_equalities():
    for (N, nd, n0) in [(12, 7, 2), (50, 25, 22), (9, 5, 1), (55, 25, 30)]:
        spec = LatticeSpec(N, 1.0, n0)
        I = steady_corrections(build_defect_system(spec, DefectSpec(nd, 1.0)))[0]
        for q in (-3.5, 1e4):
            Iq = steady_corrections(build_defect_system(spec, DefectSpec(nd, q)))[0]
            assert np.array_equal(Iq, I)
        assert np.max(np.abs(I - _interference_closed_form(N, n0, nd))) < 1e-12
        K = steady_profile_infinite_q(spec, nd).values - steady_profile(spec).values - I
        if N % 2 == 0:
            sites = [n0, nd, (n0 + N // 2) % N, (nd + N // 2) % N]
            assert np.ptp(I[sites]) < 1e-13
            assert int(np.argmax(K)) == (nd + N // 2) % N
        else:
            assert abs(I[n0] - I[nd]) < 1e-13
        m = mirror_site(spec, nd)
        assert abs(K[n0] - K[m]) < 1e-13


def test_moment_formulas():
    assert abs(steady_moments_infinite_q(2, LatticeSpec(50, 1.0, 0)) - 208.5) < 1e-12
    assert abs(steady_moments_infinite_q(2, LatticeSpec(55, 1.0, 0)) - 252.0) < 1e-12
    assert abs(steady_moments_infinite_q(1, LatticeSpec(50, 1.0, 0)) - 12.5) < 1e-12
    with pytest.raises(ValueError):
        steady_moments_infinite_q(3, LatticeSpec(10, 1.0, 0))


@pytest.mark.parametrize("N,nd,n0", [(50, 25, 22), (55, 25, 30), (12, 3, 1),
                                     (9, 2, 0), (40, 10, 4), (33, 8, 1)])
def test_moment_formulas_against_profile(N, nd, n0):
    # mean: exact; second moment: the profile carries an extra d^2/N from the
    # mirror site that the leading closed form drops
    spec = LatticeSpec(N, 1.0, n0)
    d = periodic_distance(nd, n0, N)
    assert d <= N // 4
    prof = steady_profile_infinite_q(spec, nd).values
    m1 = float(distance_powers(spec, 1) @ prof)
    m2 = float(distance_powers(spec, 2) @ prof)
    assert abs(m1 - steady_moments_infinite_q(1, spec)) < 1e-12 * max(1.0, m1)
    assert abs(m2 - (steady_moments_infinite_q(2, spec) + d * d / N)) < 1e-12 * max(1.0, m2)


def test_large_strength_profile_convergence():
    spec = LatticeSpec(50, 1.0, 2)
    target = steady_profile_infinite_q(spec, 4).values
    errs = []
    for q in (1e2, 1e3, 1e4):
        P = steady_occupation(build_defect_system(spec, DefectSpec(4, q))).values
        errs.append(float(np.max(np.abs(P - target))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2
