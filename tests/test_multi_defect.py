import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from defectchain.errors import (DuplicateDefectSite, NormalizationDrift,
                                SingularResolvent)
from defectchain.homogeneous import occupation
from defectchain.lattice import LatticeSpec
from defectchain.multi_defect import (TwoDefectRational, _b_hyper_scaled, _b_trig,
                                      _bracket_bisect, bromwich_occupation,
                                      build_two_defect_system,
                                      psi_laplace_resolvent, resolvent_solve,
                                      two_defect_occupation,
                                      two_defect_occupation_series)
from defectchain.oracle import (SpectralDecomposition, build_hamiltonian,
                                occupation_exact)
from defectchain.single_defect import (DefectSpec, build_defect_system,
                                       occupation_defect)
from defectchain.spectral import DefectDenominator, find_poles, green_laplace


def test_single_defect_resolvent_matches_scalar_formula():
    spec = LatticeSpec(8, 1.1, 2)
    eps = 0.8 + 0.45j
    psi = resolvent_solve([DefectSpec(5, 1.7)], spec, eps)[0]
    Gdd = green_laplace(spec, 5, 5, eps)
    Gd0 = green_laplace(spec, 5, 2, eps)
    assert abs(psi - Gd0 / (1.0 - 1.7j * Gdd)) < 1e-13


def test_resolvent_rejects_duplicate_sites_and_poles():
    spec = LatticeSpec(8, 1.0, 0)
    with pytest.raises(DuplicateDefectSite):
        resolvent_solve([DefectSpec(2, 1.0), DefectSpec(10, 0.5)], spec, 1.0 + 1.0j)
    # evaluating exactly on a pole of the defected system is singular
    poles = find_poles(DefectDenominator.from_physical(spec, 3, 1.4))
    eps_pole = 2j * spec.gamma * poles.x_retained[1]
    with pytest.raises(SingularResolvent):
        resolvent_solve([DefectSpec(3, 1.4)], spec, eps_pole)


def test_closed_form_matches_resolvent_assembly():
    rng = np.random.default_rng(31)
    for _ in range(15):
        N = int(rng.integers(5, 20))
        gamma = float(rng.uniform(0.5, 2.0))
        n0 = int(rng.integers(0, N))
        d1 = int(rng.integers(0, N))
        d2 = (d1 + int(rng.integers(1, N))) % N
        q1, q2 = float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4))
        spec = LatticeSpec(N, gamma, n0)
        defects = [DefectSpec(d1, q1), DefectSpec(d2, q2)]
        rat = TwoDefectRational.build(defects, spec)
        eps = complex(rng.uniform(0.2, 1.5), rng.uniform(-3.0, 3.0))
        for n in rng.integers(0, N, size=3):
            ref = psi_laplace_resolvent(defects, spec, int(n), eps)
            assert abs(rat.psi_laplace(int(n), eps) - ref) < 1e-11 * max(1.0, abs(ref))
        psis = resolvent_solve(defects, spec, eps)
        for k in range(2):
            assert abs(rat.defect_site_laplace(k, eps) - psis[k]) < 1e-11 * max(1.0, abs(psis[k]))


def test_two_defect_relabeling_symmetry():
    spec = LatticeSpec(10, 1.0, 1)
    ra = TwoDefectRational.build([DefectSpec(3, 1.2), DefectSpec(7, -0.8)], spec)
    rb = TwoDefectRational.build([DefectSpec(7, -0.8), DefectSpec(3, 1.2)], spec)
    eps = 0.3 + 0.9j
    for n in range(10):
        assert abs(ra.psi_laplace(n, eps) - rb.psi_laplace(n, eps)) < 1e-12
    sa = build_two_defect_system([DefectSpec(3, 1.2), DefectSpec(7, -0.8)], spec)
    sb = build_two_defect_system([DefectSpec(7, -0.8), DefectSpec(3, 1.2)], spec)
    for t in (0.8, 3.0):
        assert np.max(np.abs(two_defect_occupation(sa, t) - two_defect_occupation(sb, t))) < 1e-12


def test_zero_strengths_reduce_to_free_propagation():
    spec = LatticeSpec(9, 1.0, 2)
    system = build_two_defect_system([DefectSpec(4, 0.0), DefectSpec(7, 0.0)], spec)
    for t in (0.6, 2.2):
        assert np.max(np.abs(two_defect_occupation(system, t) - occupation(spec, t))) < 1e-12


def test_second_strength_zero_reduces_to_single_defect():
    spec = LatticeSpec(12, 1.0, 3)
    system = build_two_defect_system([DefectSpec(5, 2.3), DefectSpec(9, 0.0)], spec)
    single = build_defect_system(spec, DefectSpec(5, 2.3))
    for t in (0.5, 2.0, 7.0):
        assert np.max(np.abs(two_defect_occupation(system, t)
                             - occupation_defect(single, t))) < 1e-10


def test_time_domain_against_oracle_spec_example():
    spec = LatticeSpec(10, 1.0, 0)
    system = build_two_defect_system([DefectSpec(2, 2.0), DefectSpec(7, -1.0)], spec)
    dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec, [(2, 2.0), (7, -1.0)]))
    for t in (1.0, 3.0, 10.0):
        P = two_defect_occupation(system, t)
        assert np.max(np.abs(P - occupation_exact(dec, 0, t))) < 1e-8
        assert abs(P.sum() - 1.0) < 1e-10


def test_time_domain_random_tuples():
    rng = np.random.default_rng(37)
    for _ in range(12):
        N = int(rng.integers(4, 33))
        gamma = float(rng.uniform(0.5, 2.0))
        n0 = int(rng.integers(0, N))
        d1 = int(rng.integers(0, N))
        d2 = (d1 + int(rng.integers(1, N))) % N
        q1, q2 = float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10))
        spec = LatticeSpec(N, gamma, n0)
        system = build_two_defect_system([DefectSpec(d1, q1), DefectSpec(d2, q2)], spec)
        dec = SpectralDecomposition.from_hamiltonian(
            build_hamiltonian(spec, [(d1, q1), (d2, q2)]))
        for t in rng.uniform(0.0, 20.0 / gamma, size=2):
            P = two_defect_occupation(system, float(t))
            assert np.max(np.abs(P - occupation_exact(dec, n0, float(t)))) < 1e-8


def test_adjacent_strong_defects_stay_normalized():
    spec = LatticeSpec(10, 1.0, 5)
    system = build_two_defect_system([DefectSpec(1, 8.0), DefectSpec(2, 9.0)], spec)
    times = np.linspace(0.2, 12.0, 9)
    rows = two_defect_occupation_series(system, times)
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-10


def test_opposite_strength_family_has_double_roots():
    # q and -q with matched geometry produce exact double roots of the
    # deflated denominator; the order-2 residue branch must stay exact
    for (N, d1, d2, q) in [(6, 0, 3, 1.5), (10, 0, 5, 0.8), (12, 0, 4, 3.0)]:
        spec = LatticeSpec(N, 1.0, 1)
        system = build_two_defect_system([DefectSpec(d1, q), DefectSpec(d2, -q)], spec)
        assert int(np.sum(system.order == 2)) > 0
        dec = SpectralDecomposition.from_hamiltonian(
            build_hamiltonian(spec, [(d1, q), (d2, -q)]))
        for t in (0.5, 3.0, 50.0):
            P = two_defect_occupation(system, t)
            assert np.max(np.abs(P - occupation_exact(dec, 1, t))) < 1e-8


def test_weak_defect_corrections_are_additive():
    # first order in strength: two-defect correction = sum of single-defect ones
    spec = LatticeSpec(12, 1.0, 2)
    eps = 1e-4
    q1, q2 = 1.3 * eps, -0.7 * eps
    t = 2.0
    P_two = two_defect_occupation(
        build_two_defect_system([DefectSpec(4, q1), DefectSpec(9, q2)], spec), t)
    P_free = occupation(spec, t)
    P_a = occupation_defect(build_defect_system(spec, DefectSpec(4, q1)), t)
    P_b = occupation_defect(build_defect_system(spec, DefectSpec(9, q2)), t)
    lhs = P_two - P_free
    rhs = (P_a - P_free) + (P_b - P_free)
    # corrections are O(eps); their difference is O(eps^2) ~ 1e-8
    assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_three_defects_via_resolvent_and_bromwich():
    spec = LatticeSpec(6, 1.0, 0)
    defects = [DefectSpec(1, 0.8), DefectSpec(3, -0.5), DefectSpec(4, 0.3)]
    dec = SpectralDecomposition.from_hamiltonian(
        build_hamiltonian(spec, [(d.nd, d.q) for d in defects]))
    t = 1.2
    P = bromwich_occupation(defects, spec, t)
    assert np.max(np.abs(P - occupation_exact(dec, 0, t))) < 5e-3


def test_bromwich_matches_exact_two_defect():
    spec = LatticeSpec(6, 1.0, 0)
    defects = [DefectSpec(2, 1.0), DefectSpec(4, -0.7)]
    system = build_two_defect_system(defects, spec)
    P = bromwich_occupation(defects, spec, 1.5)
    assert np.max(np.abs(P - two_defect_occupation(system, 1.5))) < 5e-3


def test_minimum_chain_size_two_defects():
    spec = LatticeSpec(3, 1.0, 0)
    system = build_two_defect_system([DefectSpec(1, 1.0), DefectSpec(2, -0.6)], spec)
    dec = SpectralDecomposition.from_hamiltonian(
        build_hamiltonian(spec, [(1, 1.0), (2, -0.6)]))
    for t in (0.5, 3.0):
        assert np.max(np.abs(two_defect_occupation(system, t)
                             - occupation_exact(dec, 0, t))) < 1e-10


def test_duplicate_two_defect_sites_rejected():
    spec = LatticeSpec(8, 1.0, 0)
    with pytest.raises(DuplicateDefectSite):
        TwoDefectRational.build([DefectSpec(3, 1.0), DefectSpec(11, 2.0)], spec)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_bound_state_raises_instead_of_nan():
    # a bound state far outside the band overflows the Chebyshev series
    # and leaves NaN weights; the guard must refuse them
    spec = LatticeSpec(200, 1.0, 9)
    system = build_two_defect_system([DefectSpec(148, -99.7413), DefectSpec(174, 16.3937)], spec)
    with pytest.raises(NormalizationDrift):
        two_defect_occupation_series(system, np.linspace(0.0, 800.0, 5))


@pytest.mark.parametrize("N, nd, q", [(200, (3, 71), (4.5, 7.0)), (57, (10, 30), (-6.0, -0.3)),
                                      (80, (5, 6), (3.0, -9.0))])
def test_batched_bisection_equals_one_bracket_at_a_time(N, nd, q):
    # every trig bracket and every hyperbolic side: the element-wise
    # bisection gives each root the bits it gets alone (0-d)
    a = abs(nd[1] - nd[0])
    s_q, p_q = (q[0] + q[1]) / 2.0, q[0] * q[1] / 4.0
    theta = np.linspace(0.0, np.pi, 16 * N + 1)[1:-1]
    mu = np.geomspace(1e-7, math.acosh(2.0 + (abs(q[0]) + abs(q[1])) / 2.0) + 0.5, 160)
    cases = [(lambda t: _b_trig(t, N, a, s_q, p_q), theta)]
    cases += [(lambda m, side=side: _b_hyper_scaled(m, side, N, a, s_q, p_q), mu)
              for side in (1, -1)]
    counts = []
    for fn, grid in cases:
        v = fn(grid)
        i = np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
        batch = _bracket_bisect(fn, grid[i], grid[i + 1], v[i])
        single = [_bracket_bisect(fn, np.array(grid[k]), np.array(grid[k + 1]), np.array(v[k]))
                  for k in i]
        assert batch.shape == i.shape and np.array_equal(batch, np.array(single))
        counts.append(i.size)
    assert counts[0] > 0 and sum(counts[1:]) > 0     # in band and bound states


def test_batched_bisection_exact_zero_stops_one_element():
    # element 0 hits fn == 0 at its first midpoint, element 1 bisects on
    fn = lambda z: z - 0.25
    lo, hi = np.array([0.0, 0.0]), np.array([0.5, 0.3])
    batch = _bracket_bisect(fn, lo, hi, fn(lo))
    assert batch[0] == 0.25 and abs(batch[1] - 0.25) < 1e-16
    assert batch[1] == _bracket_bisect(fn, np.array(0.0), np.array(0.3), fn(np.array(0.0)))


def test_two_defect_weights_equal_per_cluster_chebval():
    # N=120, nd=(0, 60), q=(2, -2) has 59 order-2 poles; the array residues
    # reproduce the per-cluster scalar chebval evaluation bit for bit
    spec = LatticeSpec(120, 1.0, 0)
    system = build_two_defect_system([DefectSpec(0, 2.0), DefectSpec(60, -2.0)], spec)
    rat = system.rational
    assert int(np.sum(system.order == 2)) == 59
    cBd = npcheb.chebder(rat.cB)
    cBdd = npcheb.chebder(cBd)
    cBddd = npcheb.chebder(cBdd)
    cMd = [npcheb.chebder(rat.cM1), npcheb.chebder(rat.cM2)]
    w = np.zeros((2, system.x.size), dtype=complex)
    v = np.zeros((2, system.x.size), dtype=complex)
    for j, (x0, order) in enumerate(zip(system.x.tolist(), system.order)):
        for k in range(2):
            m0 = rat.M(k, x0)
            if order == 1:
                w[k, j] = m0 / (2.0 * npcheb.chebval(x0, cBd))
            else:
                beta2 = npcheb.chebval(x0, cBdd) / 2.0
                beta3 = npcheb.chebval(x0, cBddd) / 6.0
                w[k, j] = (npcheb.chebval(x0, cMd[k]) / (2.0 * beta2)
                           - m0 * beta3 / (2.0 * beta2 ** 2))
                v[k, j] = 1j * spec.gamma * m0 / beta2
    assert np.array_equal(system.weights, w)
    assert np.array_equal(system.ramp_weights, v)
