import numpy as np
import pytest

from defectchain.errors import (DegeneracyAmbiguity, DuplicateDefectSite,
                                NotConverged)
from defectchain.homogeneous import occupation, steady_profile
from defectchain.lattice import LatticeSpec, periodic_distances
from defectchain.oracle import (BarrierWalkSpec, SpectralDecomposition,
                                barrier_rate_matrix, barrier_walk_propagate,
                                barrier_walk_steady, build_hamiltonian,
                                defect_pole_positions, evolve_exact, occupation_exact,
                                time_average_exact)
from defectchain.single_defect import (DefectSpec, build_defect_system,
                                       steady_occupation)


def test_hamiltonian_structure():
    H = build_hamiltonian(LatticeSpec(3, 1.0, 0))
    assert np.allclose(H, [[0, -1, -1], [-1, 0, -1], [-1, -1, 0]])
    H4 = build_hamiltonian(LatticeSpec(4, 1.0, 0), [(1, 2.0)])
    assert np.allclose(np.diag(H4), [0, -2, 0, 0])
    assert H4[3, 0] == -1.0 and H4[0, 3] == -1.0          # wrap bond
    assert np.allclose(H4, H4.T)
    defects = [(2, 0.5), (5, -1.5)]
    H8 = build_hamiltonian(LatticeSpec(8, 1.0, 0), defects)
    assert abs(np.trace(H8) - (-0.5 + 1.5)) < 1e-14


def test_duplicate_defect_site():
    with pytest.raises(DuplicateDefectSite):
        build_hamiltonian(LatticeSpec(6, 1.0, 0), [(2, 1.0), (8, 0.5)])  # 8 = 2 mod 6


def test_decomposition_invariants():
    spec = LatticeSpec(16, 1.3, 0)
    H = build_hamiltonian(spec, [(5, 2.2)])
    dec = SpectralDecomposition.from_hamiltonian(H)
    resid = H @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
    assert np.max(np.abs(resid)) < 1e-12 * np.max(np.abs(dec.eigenvalues))
    gram = dec.eigenvectors.T @ dec.eigenvectors
    assert np.max(np.abs(gram - np.eye(16))) < 1e-12


def test_defect_free_even_N_degeneracy_classes():
    # every nonextremal level of the clean even ring is doubly degenerate
    dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(LatticeSpec(12, 1.0, 0)))
    sizes = sorted(len(c) for c in dec.classes)
    assert sizes == [1, 1] + [2] * 5


def test_degeneracy_ambiguity_raises():
    H = np.diag([0.0, 1.0, 1.0 + 5e-9])     # gap inside (deg_tol, 10 deg_tol)
    with pytest.raises(DegeneracyAmbiguity):
        SpectralDecomposition.from_hamiltonian(H)


def test_evolve_exact_basics():
    spec = LatticeSpec(3, 1.0, 0)
    dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec))
    psi0 = evolve_exact(dec, 0, 0.0)
    assert np.max(np.abs(psi0 - np.array([1, 0, 0]))) < 1e-13
    for t in (0.5, 2.1, 9.0):
        psi = evolve_exact(dec, 0, t)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert abs(abs(psi[0]) ** 2 - (5 + 4 * np.cos(3 * t)) / 9) < 1e-12


def test_evolution_matches_green_function():
    spec = LatticeSpec(14, 0.8, 3)
    dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec))
    for t in (0.3, 4.4):
        assert np.max(np.abs(occupation_exact(dec, 3, t) - occupation(spec, t))) < 1e-12


@pytest.mark.parametrize("N", [6, 9, 12, 17])
def test_time_average_defect_free_matches_closed_form(N):
    spec = LatticeSpec(N, 1.0, N // 3)
    dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec))
    avg = time_average_exact(dec, spec.n0)
    assert np.max(np.abs(avg - steady_profile(spec).values)) < 1e-10
    assert abs(avg.sum() - 1.0) < 1e-12


def test_time_average_strong_defect_localizes():
    spec = LatticeSpec(12, 1.0, 4)
    dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec, [(4, 20.0)]))
    avg = time_average_exact(dec, 4)
    assert avg[4] > 0.99


@pytest.mark.parametrize("q", [1e5, 1e6])
def test_strong_defect_degeneracy_scale_is_the_hopping(q):
    # max|E| ~ q would put ordinary level gaps into the ambiguity band
    spec = LatticeSpec(300, 1.0, 2)
    dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec, [(100, q)]))
    analytic = steady_occupation(build_defect_system(spec, DefectSpec(100, q))).values
    assert np.max(np.abs(time_average_exact(dec, 2) - analytic)) < 1e-9


# ---------------------------------------------------------------------------
# classical barrier walk
# ---------------------------------------------------------------------------

def test_barrier_walk_spec_validation():
    with pytest.raises(ValueError):
        BarrierWalkSpec(10, 1.0, 1.5)
    with pytest.raises(ValueError):
        BarrierWalkSpec(10, 1.0, 0.0)


def test_barrier_rate_matrix_conserves_probability():
    A = barrier_rate_matrix(BarrierWalkSpec(9, 1.0, 0.4, 2, 0))
    assert np.max(np.abs(A.sum(axis=0))) < 1e-14
    assert np.allclose(A, A.T)
    assert A[2, 3] == 0.4 and A[3, 2] == 0.4


def test_barrier_steady_profile_uniform_and_msd_barrier_free():
    d2 = periodic_distances(20, 3).astype(float) ** 2
    expect = float(d2.mean())
    for f in (0.1, 0.5, 0.9):
        res = barrier_walk_steady(BarrierWalkSpec(20, 1.0, f, 7, 3))
        assert np.max(np.abs(res.profile - 0.05)) < 1e-10
        assert abs(res.msd_time_integrated - expect) < 1e-8
        assert abs(res.msd_laplace - expect) < 1e-8


def test_barrier_msd_independent_of_strength_and_start():
    vals = []
    for f in (0.1, 0.3, 0.5, 0.7, 0.9):
        for n0 in (0, 4, 13):
            res = barrier_walk_steady(BarrierWalkSpec(20, 1.0, f, 5, n0))
            vals.extend([res.msd_time_integrated, res.msd_laplace])
    assert np.ptp(vals) < 1e-8


def test_barrier_equal_rates_is_free_walk():
    bspec = BarrierWalkSpec(12, 1.0, 1.0, 4, 2)
    times = np.array([0.05, 0.6, 3.0])
    P = barrier_walk_propagate(bspec, times)
    k = np.arange(12)
    lam = -2.0 * (1.0 - np.cos(2 * np.pi * k / 12))
    for i, t in enumerate(times):
        free = np.roll(np.fft.ifft(np.exp(lam * t)).real, 2)
        assert np.max(np.abs(P[i] - free)) < 1e-12


def test_barrier_not_converged():
    with pytest.raises(NotConverged):
        barrier_walk_steady(BarrierWalkSpec(20, 1.0, 0.5, 0, 0),
                            residual_tol=1e-300, time_cap_factor=2.0)


@pytest.mark.parametrize("N, q", [(100, 0.01), (200, 0.01), (300, 0.01), (300, 1e-3)])
def test_weak_defect_pole_classes_match_find_poles(N, q):
    # a nearly degenerate pair mixes by eps max|E| / gap, which gave spectator
    # classes a rounding-size coupling that the 1e-12 relative cut kept
    # ("retained 51 poles but the spectrum oracle has 59" at N=100)
    spec = LatticeSpec(N, 1.0, 0)
    system = build_defect_system(spec, DefectSpec(1, q), validate=True)   # raised before
    assert system.poles.x_retained.size == defect_pole_positions(spec, 1, q).size
