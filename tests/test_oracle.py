import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from defectchain import oracle
from defectchain.errors import (DegeneracyAmbiguity, DuplicateDefectSite,
                                NotConverged)
from scipy.linalg import eigh_tridiagonal

from defectchain.homogeneous import green_profiles, steady_profile
from defectchain.lattice import LatticeSpec, periodic_distances
from defectchain.oracle import (BarrierWalkSpec, SpectralDecomposition,
                                barrier_rate_matrix, barrier_walk_propagate,
                                barrier_walk_steady, build_hamiltonian,
                                check_defect_roots, defect_decomposition,
                                evolve_exact, occupation_exact,
                                time_average_exact)
from defectchain.multi_defect import build_two_defect_system
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
    dec = SpectralDecomposition.from_hamiltonian(H)    # only the average reads classes
    assert dec.classes == ((0,), (1,), (2,))
    assert np.max(np.abs(occupation_exact(dec, 1, 2.0) - [0.0, 1.0, 0.0])) < 1e-15
    with pytest.raises(DegeneracyAmbiguity):
        time_average_exact(dec, 1)


def test_evolve_exact_basics():
    spec = LatticeSpec(3, 1.0, 0)
    dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec))
    psi0 = evolve_exact(dec, 0, 0.0)
    assert np.max(np.abs(psi0 - np.array([1, 0, 0]))) < 1e-13
    for t in (0.5, 2.1, 9.0):
        psi = evolve_exact(dec, 0, t)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert abs(abs(psi[0]) ** 2 - (5 + 4 * np.cos(3 * t)) / 9) < 1e-12


def test_exact_evolution_rejects_a_time_whose_phase_overflows():
    # E t overflowed to inf, and e^{-i E t} then gave a NaN state with no error
    spec = LatticeSpec(3, 1.0, 0)
    dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec))
    strong = defect_decomposition(LatticeSpec(12, 1.0, 3), 7, 1e8)
    for d, bad in ((dec, 1e308), (dec, np.inf), (dec, -np.inf), (dec, np.nan), (strong, 1e301)):
        for call in (evolve_exact, occupation_exact):
            with pytest.raises(ValueError, match="time must be finite"):
                call(d, 0, bad)
    assert np.all(np.isfinite(occupation_exact(strong, 0, 1e299)))
    assert abs(occupation_exact(dec, 0, 1e300).sum() - 1.0) < 1e-12


def test_evolution_matches_green_function():
    spec = LatticeSpec(14, 0.8, 3)
    dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec))
    for t in (0.3, 4.4):
        assert np.max(np.abs(occupation_exact(dec, 3, t) - np.abs(green_profiles(spec, [t])[0]) ** 2)) < 1e-12


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


def test_defect_decomposition_invariants():
    spec = LatticeSpec(17, 1.3, 0)
    H = build_hamiltonian(spec, [(5, 2.2)])
    dec = defect_decomposition(spec, 5, 2.2)
    assert np.max(np.abs(H @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues)) < 1e-12
    assert np.max(np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(17))) < 1e-12
    assert np.allclose(np.sort(dec.eigenvalues), np.linalg.eigvalsh(H), atol=1e-12)


@pytest.mark.parametrize("N", [6, 9, 12, 17])
def test_defect_decomposition_free_ring_pairs_its_levels(N):
    # at q = 0 even and odd level k coincide, and only their shared class
    # gives the free ring's time average
    spec = LatticeSpec(N, 1.0, N // 3)
    dec = defect_decomposition(spec, 2, 0.0)
    assert sorted(len(c) for c in dec.classes) == [1] * (2 - N % 2) + [2] * ((N - 1) // 2)
    assert np.max(np.abs(time_average_exact(dec, spec.n0) - steady_profile(spec).values)) < 1e-13


@pytest.mark.parametrize("N, gamma, n0, nd, q", [
    (50, 1.0, 1, 16, 1e8), (300, 1.0, 5, 0, 1e7), (300, 1.0, 5, 0, -1e7), (300, 1.0, 5, 0, 1e-7),
    (301, 1.0, 7, 3, 3e6), (800, 1.0, 1, 400, 1e8),
    (69, 0.7, 0, 1, 1e7),       # eigh alone, without the band's second pass, is 1.4e-9 off here
])
def test_sector_referee_matches_implicit_ql(N, gamma, n0, nd, q):
    # NumPy's eigh (divide and conquer) against LAPACK's implicit QL/QR
    # (dstev) on the same reflection sectors, in P_n(t)
    spec = LatticeSpec(N, gamma, n0)
    H = build_hamiltonian(spec, [(nd, q)])
    times = np.linspace(0.0, 4.0 * N / gamma, 9)
    psi = 0.0
    for sign, m in ((1.0, np.arange(N // 2 + 1)), (-1.0, np.arange(1, (N - 1) // 2 + 1))):
        U = np.zeros((N, m.size))
        U[(nd + m) % N, np.arange(m.size)] += 1.0
        U[(nd - m) % N, np.arange(m.size)] += sign
        U /= np.linalg.norm(U, axis=0)
        T = U.T @ H @ U
        E, Y = eigh_tridiagonal(np.diag(T), np.diag(T, 1), lapack_driver="stev")
        V = U @ Y
        psi = psi + V @ (np.exp(-1j * np.outer(E, times)) * V[n0, :, None])
    want = (psi.real ** 2 + psi.imag ** 2).T
    dec = defect_decomposition(spec, nd, q)
    got = np.array([occupation_exact(dec, n0, t) for t in times])
    assert np.max(np.abs(got - want)) < 1e-13


# ---------------------------------------------------------------------------
# classical barrier walk
# ---------------------------------------------------------------------------

def test_barrier_walk_spec_validation():
    with pytest.raises(ValueError):
        BarrierWalkSpec(10, 1.0, 1.5)
    with pytest.raises(ValueError):
        BarrierWalkSpec(10, 1.0, 0.0)
    with pytest.raises(ValueError, match="N must be >= 3"):
        BarrierWalkSpec(2, 1.0, 0.5)


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


@pytest.mark.parametrize("N, f", [(20, 0.1), (20, 0.9), (100, 0.5)])
def test_barrier_walk_diagonalizes_once(monkeypatch, N, f):
    # a search for the steady time once took 4 to 6 eigh calls; the profile
    # it reaches is the propagated one, bit for bit
    bspec = BarrierWalkSpec(N, 1.0, f, 5, 3)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or eigh(A))
    res = barrier_walk_steady(bspec)
    assert calls == [(N, N)]
    assert np.array_equal(res.profile, barrier_walk_propagate(bspec, [res.time_reached])[0])


def test_barrier_not_converged(monkeypatch):
    # no time reaches a residual below rounding: the guard raises
    monkeypatch.setattr(oracle, "RESIDUAL_TOL", 1e-300)
    with pytest.raises(NotConverged, match="residual above"):
        barrier_walk_steady(BarrierWalkSpec(20, 1.0, 0.5, 0, 0))


def _loop_rate_matrix(bspec):
    """The generator bond by bond, as the master equation reads."""
    N = bspec.N
    A = np.zeros((N, N))
    for n in range(N):
        rate, m = (bspec.f if n == bspec.r else bspec.F), (n + 1) % N
        A[n, m] += rate
        A[m, n] += rate
        A[n, n] -= rate
        A[m, m] -= rate
    return A


def test_barrier_rate_matrix_is_the_bond_loop():
    rng = np.random.default_rng(11)
    for _ in range(300):
        N = int(rng.integers(3, 40))
        F = float(rng.uniform(0.1, 10.0))
        bspec = BarrierWalkSpec(N, F, F * float(rng.uniform(1e-3, 1.0)), int(rng.integers(0, N)))
        assert np.array_equal(barrier_rate_matrix(bspec), _loop_rate_matrix(bspec))


def test_barrier_integer_rates_are_floats():
    # np.full(N, 1) was an int array: the weak bond of rate 0.5 became 0
    bspec = BarrierWalkSpec(6, 1, 0.5)
    assert type(bspec.F) is float and type(bspec.f) is float
    assert barrier_rate_matrix(bspec)[0, 1] == 0.5
    assert np.array_equal(barrier_rate_matrix(bspec), barrier_rate_matrix(BarrierWalkSpec(6, 1.0, 0.5)))


@pytest.mark.parametrize("F, f", [(np.inf, 1.0), (1e308, 1e308), (1e-320, 1e-320)])
def test_barrier_rates_must_give_finite_scales(F, f):
    # 2F or t_relax = 1 / (2 F (1 - cos(pi / N))) overflowed: a LinAlgError,
    # or a search for the steady time that never ended
    with pytest.raises(ValueError, match="t_relax finite"):
        BarrierWalkSpec(20, F, f)


@pytest.mark.parametrize("F", [1e-200, 1e-12, 1e4, 1e300])
def test_barrier_stop_test_is_unit_free(F):
    # an absolute 1e-12 on ||A P|| stopped at 18.68 for F = 1e-12 and never
    # stopped for F = 1e4; ||A P|| itself underflowed to 0 (F = 1e-200) or
    # overflowed (1e300) unless taken in units of F; sum_n d^2 / N = 33.5 at N = 20
    res = barrier_walk_steady(BarrierWalkSpec(20, F, F))
    assert abs(res.msd_time_integrated - 33.5) < 1e-8
    assert abs(res.msd_laplace - 33.5) < 1e-8


def test_barrier_nearly_closed_reaches_the_flat_msd():
    # t_relax came from f: at t ~ 1e15 the rounded zero eigenvalue's
    # e^{lambda t} was 1.43 (NotConverged), and f = 1e-300 overflowed exp;
    # the open chain's t_relax bounds every barrier
    for f in (1e-14, 1e-300):
        res = barrier_walk_steady(BarrierWalkSpec(20, 1.0, f))
        assert abs(res.msd_time_integrated - 33.5) < 1e-9
        assert abs(res.msd_laplace - 33.5) < 1e-9


@pytest.mark.parametrize("N", [400, 800, 1200, 2000])
@pytest.mark.parametrize("ratio", [1e-300, 1e-14, 0.5, 1.0])
def test_barrier_routes_keep_their_digits_at_large_n(N, ratio):
    # a fixed eps0 = 1e-6 F left the Laplace route 1.0e-8 (N = 400), 6.3e-7
    # (800) and 6.9e-6 (1200) off, and f = 1e-14 raised NotConverged; the
    # cosine sum's 2 (1 - cos(2 pi k / N)) then left it 2.2e-11 off at N = 800
    n0 = N // 3
    exact = float(np.sum(periodic_distances(N, n0).astype(float) ** 2) / N)
    res = barrier_walk_steady(BarrierWalkSpec(N, 1.0, ratio, N // 7, n0))
    assert abs(res.msd_time_integrated / exact - 1.0) < 1e-10
    assert abs(res.msd_laplace / exact - 1.0) < 1e-12


@pytest.mark.parametrize("N", [3, 4, 5, 6, 20, 51, 128])
def test_barrier_profile_laplace_is_the_dense_solve(N):
    # the FFT frame plus the rank-one barrier correction solves
    # (eps I - A / F) P = e_n0 for every barrier strength
    for ratio in (1e-300, 1e-14, 1e-3, 0.5, 1.0):
        bspec = BarrierWalkSpec(N, 1.0, ratio, N // 3, N - 1)
        A = barrier_rate_matrix(bspec)
        for eps in (1e-3, 0.3, 5.0):
            want = np.linalg.solve(eps * np.eye(N) - A, np.eye(N)[bspec.n0])
            got = oracle._barrier_profile_laplace(bspec, eps)
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_barrier_profile_laplace_memory_stays_small():
    # one frame of N / 2 + 1 modes: the explicit cosine sums peaked at
    # 61.1 MiB at N = 2000
    bspec = BarrierWalkSpec(2000, 1.0, 0.5, 285, 666)
    tracemalloc.start()
    try:
        oracle._barrier_profile_laplace(bspec, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("N, F, f", [(20, 1e-304, 1e-304), (20, 2.4e-307, 1e-320), (20, 1e300, 1e-300),
                                     (2000, 1e-302, 1e-302)])
def test_barrier_routes_run_in_units_of_F(N, F, f):
    # in rate units 1 / eps overflowed (N = 20, F = 1e-304) and so did the
    # steady time (N = 2000, F = 1e-302), both NotConverged; on A / F every
    # F the spec accepts reaches sum_n d^2 / N on both routes
    n0 = N // 3
    exact = float(np.sum(periodic_distances(N, n0).astype(float) ** 2) / N)
    res = barrier_walk_steady(BarrierWalkSpec(N, F, f, N // 7, n0))
    assert abs(res.msd_time_integrated / exact - 1.0) < 1e-10
    assert abs(res.msd_laplace / exact - 1.0) < 1e-10


def test_barrier_laplace_guard_raises_on_a_non_finite_route(monkeypatch):
    # no accepted F overflows the Laplace route now; a non-finite profile
    # still raises instead of returning a NaN MSD
    monkeypatch.setattr(oracle, "_barrier_profile_laplace", lambda bspec, eps: np.full(bspec.N, np.nan))
    with pytest.raises(NotConverged, match="Laplace route not finite"):
        barrier_walk_steady(BarrierWalkSpec(20, 1.0, 0.5))


def test_defect_roots_of_a_free_system_pass_any_reference():
    # no live defect, no roots to compare: even another system's levels pass
    spec = LatticeSpec(12, 1.0, 0)
    system = build_defect_system(spec, DefectSpec(3, 0.0))
    assert system.x.size == 0
    assert check_defect_roots(system, defect_decomposition(spec, 3, 5.0)) is None


def test_defect_roots_of_two_live_defects_are_a_value_error():
    # the check is one defect's even sector: two live defects raised
    # "too many values to unpack" before
    spec = LatticeSpec(12, 1.0, 2)
    defects = [DefectSpec(3, 1.0), DefectSpec(7, 2.0)]
    system = build_two_defect_system(defects, spec)
    dec = SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec, [(d.nd, d.q) for d in defects]))
    with pytest.raises(ValueError, match="at most one defect of nonzero strength, got 2"):
        check_defect_roots(system, dec)


@pytest.mark.parametrize("N, q", [(100, 0.01), (200, 0.01), (300, 0.01), (300, 1e-3)])
def test_weak_defect_pole_classes_match_find_poles(N, q):
    # weak defects split each doubled level by ~q / N; the roots plus the odd
    # free levels are the whole dense spectrum (check_defect_roots checks it,
    # and once raised "retained 51 poles but the spectrum oracle has 59" at N=100)
    spec = LatticeSpec(N, 1.0, 0)
    system = build_defect_system(spec, DefectSpec(1, q))
    check_defect_roots(system, defect_decomposition(spec, 1, q))
    k = np.arange(1, (N - 1) // 2 + 1)
    levels = np.sort(np.append(system.x, np.cos(2.0 * np.pi * k / N)))
    assert levels.size == N
    dense = np.sort(defect_decomposition(spec, 1, q).eigenvalues / (-2.0 * spec.gamma))
    assert np.max(np.abs(levels - dense)) < 1e-12


def _package_imports(module: str) -> set[str]:
    """The defectchain modules that src/defectchain/<module>.py imports,
    at module level or inside a function."""
    tree = ast.parse((Path(__file__).resolve().parent.parent / "src" / "defectchain"
                      / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("defectchain"):
            found.add(node.module.removeprefix("defectchain").lstrip("."))
        elif isinstance(node, ast.Import):
            found |= {a.name.removeprefix("defectchain.") for a in node.names
                      if a.name.startswith("defectchain.")}
    return found


@pytest.mark.parametrize("module", ["spectral", "homogeneous", "single_defect",
                                    "multi_defect", "strong_defect"])
def test_solver_modules_do_not_import_the_oracle(module):
    assert "oracle" not in _package_imports(module)


def test_oracle_imports_only_lattice_and_errors():
    assert _package_imports("oracle") == {"lattice", "errors"}
