import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from defectchain import single_defect
from defectchain.errors import NormalizationDrift
from defectchain.homogeneous import (distance_powers, green_profiles,
                                     moment_series, steady_profile, time_blocks)
from defectchain.lattice import LatticeSpec
from defectchain.multi_defect import build_two_defect_system
from defectchain.oracle import (check_defect_roots, defect_decomposition,
                                evolve_exact, green_laplace, occupation_exact,
                                time_average_exact)
from defectchain.single_defect import (DefectSpec, PhiSeries,
                                       build_defect_system, defect_systems,
                                       eigen_amplitudes, moment_defect_series,
                                       occupation_defect,
                                       occupation_defect_series, phi_series,
                                       steady_corrections, steady_moment_defect,
                                       steady_occupation)
from defectchain.spectral import _gaps_theta, find_poles
from parity_dense import dense_occupation, dense_steady_terms, dense_wave_function


def _system(N, gamma, n0, nd, q, check=False):
    """The one-defect system; check=True referees its roots against the
    dense even sector first."""
    spec = LatticeSpec(N, gamma, n0)
    system = build_defect_system(spec, DefectSpec(nd, q))
    if check:
        check_defect_roots(system, defect_decomposition(spec, nd, q))
    return system


def amplitude_profiles(system, times):
    """A(n, t) = psi(n, t) - G(n, n0, t) rows for a time grid: the
    defect-scattered part of the wave function."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return single_defect._wave_functions(system, times) - green_profiles(system.spec, times)


def amplitude_profile(system, t):
    """A(n, t) at one time, the one-row view of amplitude_profiles."""
    return amplitude_profiles(system, [t])[0]


def _free_occupation(spec, t):
    """|G(n, n0, t)|^2 at one time."""
    g = green_profiles(spec, [t])[0]
    return g.real ** 2 + g.imag ** 2


def corrections(system, t):
    """Interference and scattered terms I_n = 2 Re(conj(G) A), K_n = |A|^2
    at one time, from amplitude_profiles."""
    A = amplitude_profile(system, t)
    return 2.0 * (np.conj(green_profiles(system.spec, [t])[0]) * A).real, A.real ** 2 + A.imag ** 2


@pytest.mark.parametrize("N, n0", [(9, 4), (50, 2), (51, 0), (200, 2)])
def test_defect_systems_equal_per_point_builder(N, n0):
    # the sweep shares one pole solve and one row FFT per strength across
    # sites; every system it yields is the per-point build, array for array
    spec = LatticeSpec(N, 1.3, n0)
    sites = [n0, n0 + 1, n0 - 1, n0 + N // 2, n0 + N]
    strengths = [0.7, 0.0, -2.5, 0.7, 1e-9, -40.0, 0.0, 3e5]
    times = np.linspace(0.0, 2.0 * N, 3)
    count = 0
    for q, systems in zip(strengths, defect_systems(spec, sites, strengths)):
        assert len(systems) == len(sites)
        for nd, got in zip(sites, systems):
            want = build_defect_system(spec, DefectSpec(nd, q))
            assert got.defects == want.defects and got.spec == spec
            assert np.array_equal(got.x, want.x)
            if q:
                assert np.array_equal(got.rows.offset, want.rows.offset)
            else:
                assert got.rows.shape == want.rows.shape == (0, N)
            assert np.array_equal(occupation_defect_series(got, times),
                                  occupation_defect_series(want, times))
        count += 1
    assert count == len(strengths)
    assert list(defect_systems(spec, sites, [])) == []


def _eager_weights(spec, nd, q):
    """The roots x, the (J, N) weight matrix and S of one defect, formed
    without blocks from find_poles' roots: W_jn = g(n - nd) g(n0 - nd) /
    ||g||^2, g one inverse real FFT of 1 / (x_j - c_k) per root, and S =
    einsum("jn,jn->n", W, W)."""
    N = spec.N
    poles = find_poles(N, [q / (2.0 * spec.gamma)])
    spectra = np.zeros((poles.x.shape[1], N // 2 + 1), dtype=complex)
    spectra.real = 1.0 / (_gaps_theta(2 * poles.level[0], N) + poles.offset[0][:, None])
    g = np.fft.irfft(spectra, N)
    norms = np.einsum("jn,jn->j", g, g)
    g = np.roll(g, nd, axis=1)
    W = g * (g[:, spec.n0] / norms)[:, None]
    return poles.x[0], W, np.einsum("jn,jn->n", W, W)


def _eager_occupation(spec, nd, x, W, times):
    """P_n(t) from the formed W: one cos and one sin product over W, plus the
    odd free part (G(n, n0, t) - G(n, 2 nd - n0, t)) / 2."""
    G = green_profiles(spec, times)
    mirror = G[:, (np.arange(spec.N) + 2 * (spec.n0 - nd)) % spec.N]
    psi = eigen_amplitudes(x, W, spec.gamma, times) + 0.5 * (G - mirror)
    return psi.real ** 2 + psi.imag ** 2


# |P_n(t) - the eager W's P_n(t)|: at most 1.3e-15 measured (N = 799, 2000)
SERIES_TOL = 4e-15
# |S - the eager einsum's S| / max S: at most 2.8e-15 measured (N = 3 ... 2001,
# |q| from 1e-12 to 1e8), as S is summed over half the frame by another order
LEVEL_SUM_TOL = 4e-15
# |steady moment - the eager S's| / moment: at most 4.9e-16 measured
MOMENT_TOL = 1e-15


def _with_level_sum(system, S):
    """The system with S in place of its row pass's level sums (the steady
    functions read nothing else of the rows)."""
    return dataclasses.replace(system, rows=SimpleNamespace(level_sums={system.live[0].nd: S}))


def _assert_near_the_eager_sums(got, S):
    """S, the steady profile and both steady moments of `got` within
    rounding of those the eager S gives."""
    want = _with_level_sum(got, S)
    assert np.max(np.abs(got._level_sum - S)) <= LEVEL_SUM_TOL * S.max()
    P = steady_occupation(want).values
    assert np.max(np.abs(steady_occupation(got).values - P)) <= LEVEL_SUM_TOL * P.max()
    for p in (1, 2):
        assert abs(steady_moment_defect(got, p) - steady_moment_defect(want, p)) \
            <= MOMENT_TOL * abs(steady_moment_defect(want, p))


@pytest.mark.parametrize("N", [3, 4, 7, 50, 199, 200, 799, 2000])
def test_row_pass_keeps_the_eager_bits(N):
    # W's column comes block by block from the row pass with the bits of an
    # eager weight matrix, and S and every steady observable within rounding
    # of its einsum; the series, one inverse FFT of the roots' spectra per
    # time, stays within rounding of the eager W's
    rng = np.random.default_rng(N)
    spec = LatticeSpec(N, 1.0, int(rng.integers(N)))
    sites = [int(nd) for nd in rng.integers(N, size=3)]
    strengths = [1e-3, -1e-3, 0.37, -2.2, -1e3, 1e3]
    times = np.linspace(0.0, 3.0 * N, 3)
    for q, systems in zip(strengths, defect_systems(spec, sites, strengths)):
        for nd, got in zip(sites, systems):
            x, W, S = _eager_weights(spec, nd, q)
            assert np.array_equal(got.x, x)
            _assert_near_the_eager_sums(got, S)
            assert np.array_equal(got.rows.column(nd), W[:, nd])
            if N <= 799 or nd == sites[0]:
                assert np.max(np.abs(occupation_defect_series(got, times)
                                     - _eager_occupation(spec, nd, x, W, times))) < SERIES_TOL


@pytest.mark.parametrize("N", [511, 512, 513])
def test_fused_level_sums_match_the_eager_sums_at_the_one_block_edge(N):
    # a row block holds BLOCK_ELEMENTS // (8 N) roots: all 256 at N = 511,
    # and at N = 512 and 513 a second block adds its product to the first
    # block's sum; S is within rounding of the eager matrix's either way
    blocks = time_blocks(N // 2 + 1, 8 * N)
    assert len(blocks) == (1 if N == 511 else 2)
    spec = LatticeSpec(N, 1.0, 200)
    sites = [0, 201, N - 1]
    strengths = [0.37, -2.2]
    for q, systems in zip(strengths, defect_systems(spec, sites, strengths)):
        for nd, got in zip(sites, systems):
            _assert_near_the_eager_sums(got, _eager_weights(spec, nd, q)[2])


def test_build_and_steady_reads_memory_is_small_blocks():
    # at N = 2000 the 1001 weight rows would take 15.3 MiB; the build, the
    # steady profile and both steady moments hold none of them: each block
    # of rows goes straight into S and is dropped
    spec = LatticeSpec(2000, 1.0, 3)

    def steady():
        system = build_defect_system(spec, DefectSpec(700, 0.8))
        steady_occupation(system), steady_moment_defect(system, 1), steady_moment_defect(system, 2)
        return system

    steady()
    tracemalloc.start()
    try:
        system = steady()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20
    assert set(system.rows.level_sums) == {700}


def test_row_passes_follow_the_reads(monkeypatch):
    # a sweep read for steady moments takes one row pass per strength for
    # all its sites; a fresh system's series takes one pass (its own site's
    # W) and no level-sum pass
    passes = []
    row_pass = single_defect._weight_rows
    monkeypatch.setattr(single_defect, "_weight_rows", lambda *a: passes.append(tuple(a[-1])) or row_pass(*a))
    spec = LatticeSpec(200, 1.0, 2)
    sites, qs = (2, 3, 4, 5, 6), np.geomspace(0.01, 100.0, 41)
    for systems in defect_systems(spec, sites, qs):
        for system in systems:
            steady_moment_defect(system, 1), steady_moment_defect(system, 2)
    assert passes == [sites] * 41
    passes.clear()
    system = build_defect_system(spec, DefectSpec(70, -1.3))
    occupation_defect_series(system, np.linspace(0.0, 400.0, 9))
    assert passes == [(70,)] and "level_sums" not in vars(system.rows)


def test_moments_share_the_grids_psi_pass(monkeypatch):
    # P_n(t), Delta_1 and Delta_2 on one grid take one psi pass; the moments
    # are the products with the distance powers, and belong to the caller
    calls = []
    wave = single_defect._wave_functions
    monkeypatch.setattr(single_defect, "_wave_functions", lambda *a: calls.append(1) or wave(*a))
    several = build_two_defect_system([DefectSpec(7, 0.9), DefectSpec(1, -0.4)], LatticeSpec(12, 1.0, 3))
    for system in (_system(50, 1.3, 4, 17, -2.2), several, _system(9, 1.0, 2, 5, 0.0)):
        times = np.linspace(0.0, 40.0, 33)
        calls.clear()
        P = occupation_defect_series(system, times)
        d2, d1 = moment_defect_series(system, 2, times), moment_defect_series(system, 1, times)
        assert len(calls) == 1
        for p, d in ((1, d1), (2, d2)):
            assert np.array_equal(d, P @ distance_powers(system.spec, p))
        d1[:] = np.nan
        assert np.array_equal(moment_defect_series(system, 1, times), P @ distance_powers(system.spec, 1))
        assert len(calls) == 1
        other = times[:-1]
        m1 = moment_defect_series(system, 1, other)
        assert len(calls) == 2 and np.array_equal(m1, P[:-1] @ distance_powers(system.spec, 1))
        with pytest.raises(ValueError, match="p must be 1 or 2"):
            moment_defect_series(system, 3, other)
        assert occupation_defect_series(system, []).shape == (0, system.spec.N)
        assert moment_defect_series(system, 2, []).shape == (0,)


def test_empty_time_grid_takes_no_row_pass(monkeypatch):
    # an empty grid ran a whole row pass before it saw T = 0 (156 ms at N = 6000)
    def no_pass(*args):
        raise AssertionError("a row pass ran")

    monkeypatch.setattr(single_defect, "_weight_rows", no_pass)
    spec = LatticeSpec(12, 1.0, 3)
    several = build_two_defect_system([DefectSpec(7, 0.9), DefectSpec(1, -0.4)], spec)
    for system in (_system(12, 1.0, 3, 7, 0.0), _system(12, 1.0, 3, 7, 0.9), several):
        assert occupation_defect_series(system, []).shape == (0, 12)
        assert moment_defect_series(system, 1, np.empty(0)).shape == (0,)


@pytest.mark.parametrize("N", [3, 4, 7, 50, 51, 512, 513, 2000, 2001])
def test_row_pass_spectra_are_the_gathered_gaps(N):
    # the row pass reads its gaps as views of one sine table; its spectra
    # are 1 / (_gaps_theta's gathered row + offset), bit for bit
    strengths = [1e-12, -1e-12, 0.37, -2.2, 1e8, -1e8]
    poles = find_poles(N, strengths)
    for level, offset in zip(poles.level, poles.offset):
        want = 1.0 / (_gaps_theta(2 * level, N) + offset[:, None])
        got = np.concatenate([s.copy() for _, s, *_ in single_defect._weight_rows(offset, N, 0, [0])])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [-1, 0, 3])
def test_time_resolved_moments_take_orders_one_and_two(p):
    # as the steady moments do: p = -1 gave inf from the d = 0 term
    spec = LatticeSpec(12, 1.0, 3)
    with pytest.raises(ValueError, match="p must be 1 or 2"):
        moment_series(p, [0.5, 1.0], spec)
    for system in (_system(12, 1.0, 3, 7, 0.9), _system(12, 1.0, 3, 7, 0.0),
                   build_two_defect_system([DefectSpec(7, 0.9), DefectSpec(1, -0.4)], spec)):
        with pytest.raises(ValueError, match="p must be 1 or 2"):
            moment_defect_series(system, p, [0.5, 1.0])


def test_series_rejects_non_finite_times():
    # every time path, Phi and the M >= 2 series included, raises the one
    # ValueError (Phi returned NaN, the M >= 2 series NormalizationDrift),
    # also where a finite t overflows the phase 2 gamma x t
    system = _system(12, 1.0, 3, 7, 0.9)
    spec = system.spec
    several = build_two_defect_system([DefectSpec(7, 0.9), DefectSpec(1, -0.4)], spec)
    for bad in (np.nan, np.inf, 1e308):
        for call in (lambda: occupation_defect_series(system, [0.5, bad]),
                     lambda: occupation_defect_series(several, [0.5, bad]),
                     lambda: moment_defect_series(several, 2, [bad]),
                     lambda: phi_series(system)(bad),
                     lambda: phi_series(system)([[0.5], [bad]]),
                     lambda: PhiSeries(np.cos(np.pi * np.arange(1, 12, 2) / 12), np.ones(6), 1.0)(bad)):
            with pytest.raises(ValueError, match="times must be finite"):
                call()
    strong = _system(12, 1.0, 3, 7, 1e8)            # bound level x ~ 5e7
    for call in (lambda: occupation_defect_series(strong, [0.5, 1e301]),
                 lambda: phi_series(strong)(1e301)):
        with pytest.raises(ValueError, match="times must be finite"):
            call()
    assert np.isfinite(phi_series(strong)(1e299))


def test_series_reject_a_2d_time_grid():
    # a (2, 1) grid reached NumPy's "operands could not be broadcast
    # together"; Phi ravels any shape and keeps it
    spec = LatticeSpec(12, 1.0, 3)
    grid = np.array([[0.5], [1.0]])
    several = build_two_defect_system([DefectSpec(7, 0.9), DefectSpec(1, -0.4)], spec)
    calls = [lambda: green_profiles(spec, grid), lambda: moment_series(2, grid, spec)]
    for system in (_system(12, 1.0, 3, 7, 0.0), _system(12, 1.0, 3, 7, 0.9), several):
        calls += [lambda s=system: occupation_defect_series(s, grid),
                  lambda s=system: moment_defect_series(s, 1, grid)]
    for call in calls:
        with pytest.raises(ValueError, match=r"1-d array, got shape \(2, 1\)"):
            call()
    phi = phi_series(_system(12, 1.0, 3, 7, 0.9))
    assert np.array_equal(phi(grid), phi(grid.ravel()).reshape(2, 1))


def test_defect_spec_rejects_non_finite_strength():
    for q in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            build_defect_system(LatticeSpec(10), DefectSpec(3, q))
        with pytest.raises(ValueError, match="finite"):
            list(defect_systems(LatticeSpec(10), [3], [1.0, q]))


def test_phi_series_zero_strength_is_empty():
    sys0 = _system(8, 1.0, 1, 5, 0.0)
    phi = phi_series(sys0)
    assert phi.x.size == 0
    assert phi(1.3) == 0.0


@pytest.mark.parametrize("N", [3, 4, 7, 50, 199, 2000])
def test_phi_amplitudes_come_from_the_row_pass(N):
    # c_j = q W_j,nd, taken block by block from a row pass: the bits of
    # the eager W's column
    rng = np.random.default_rng(N)
    for q in (1e-3, -0.37, 2.2, -1e3):
        n0, nd = (int(v) for v in rng.integers(0, N, 2))
        system = _system(N, 1.0, n0, nd, q)
        phi = phi_series(system)
        assert np.array_equal(phi.amplitudes, q * _eager_weights(system.spec, nd, q)[1][:, nd])


def test_phi_memory_is_the_row_pass():
    # forming W for its one column peaked at 20 MiB at N = 2000 and left
    # 15.3 MiB cached on the system
    spec = LatticeSpec(2000, 1.0, 3)
    phi_series(build_defect_system(spec, DefectSpec(700, 0.8)))
    tracemalloc.start()
    try:
        system = build_defect_system(spec, DefectSpec(700, 0.8))
        phi = phi_series(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi.amplitudes.shape == (1001,)
    assert peak < 6 * 2 ** 20


def test_phi_at_zero_time():
    # Phi(0) = i q sum_j f_j = i q for nd = n0 and 0 otherwise
    s_on = _system(7, 1.0, 2, 2, 1.4, check=True)
    assert abs(phi_series(s_on)(0.0) - 1.4j) < 1e-9
    s_off = _system(7, 1.0, 2, 5, 1.4)
    assert abs(phi_series(s_off)(0.0)) < 1e-9


def test_phi_is_defect_site_wave_function():
    # Phi(t) = i q psi(nd, n0, t): the response is the wave function at the defect
    spec = LatticeSpec(9, 1.2, 1)
    sysq = build_defect_system(spec, DefectSpec(6, -2.3))
    dec = defect_decomposition(spec, 6, -2.3)
    phi = phi_series(sysq)
    for t in (0.4, 2.0, 7.7):
        psi = evolve_exact(dec, 1, t)
        assert abs(phi(t) - (-2.3j) * psi[6]) < 1e-9


def test_phi_against_bromwich_inversion():
    # numeric inverse Laplace of i q G(nd,n0)/(1 - i q G(nd,nd)) on a contour;
    # nd = n0 so the 1/s tail (value i q) can be subtracted analytically
    N, gamma, q = 4, 1.0, 1.0
    spec = LatticeSpec(N, gamma, 0)
    sysq = build_defect_system(spec, DefectSpec(0, q))
    phi = phi_series(sysq)
    sigma = 0.5
    omega = np.linspace(-400.0, 400.0, 160001)
    s = sigma + 1j * omega
    Gd0 = green_laplace(spec, 0, 0, s)
    phi_tilde = 1j * q * Gd0 / (1.0 - 1j * q * Gd0)
    rest = phi_tilde - 1j * q / s
    for t in (0.5, 1.3):
        val = 1j * q + np.trapezoid(np.exp(s * t) * rest, omega) / (2 * np.pi)
        assert abs(val - phi(t)) < 1e-5


def test_amplitude_zero_cases():
    sysq = _system(6, 1.0, 0, 3, 1.1)
    assert np.max(np.abs(amplitude_profile(sysq, 0.0))) < 1e-14
    sys0 = _system(6, 1.0, 0, 3, 0.0)
    assert np.max(np.abs(amplitude_profile(sys0, 2.0))) == 0.0


def test_amplitude_against_quadrature():
    # A(n, nd, t) = int_0^t G(n, nd, t - t1) Phi(t1) dt1, by adaptive quadrature
    spec = LatticeSpec(4, 1.0, 0)
    sysq = build_defect_system(spec, DefectSpec(2, 0.8))
    phi = phi_series(sysq)
    t = 1.3
    A = amplitude_profile(sysq, t)
    k = np.arange(4)
    for n in range(4):
        def integrand(t1, part):
            g = np.mean(np.exp(2j * t * 0 + 2j * spec.gamma * (t - t1) * np.cos(2 * np.pi * k / 4)
                               + 2j * np.pi * k * (n - 2) / 4))
            val = g * phi(t1)
            return val.real if part == 0 else val.imag
        re, _ = quad(integrand, 0.0, t, args=(0,), epsabs=1e-11, limit=300)
        im, _ = quad(integrand, 0.0, t, args=(1,), epsabs=1e-11, limit=300)
        assert abs(A[n] - (re + 1j * im)) < 1e-9


def test_amplitude_is_wave_function_minus_free_part():
    spec = LatticeSpec(6, 1.0, 2)
    sysq = build_defect_system(spec, DefectSpec(4, 1.5))
    dec = defect_decomposition(spec, 4, 1.5)
    for t in (0.7, 2.0):
        A = amplitude_profile(sysq, t)
        A_oracle = evolve_exact(dec, 2, t) - green_profiles(spec, [t])[0]
        assert np.max(np.abs(A - A_oracle)) < 1e-10


def test_amplitude_profiles_vectorized():
    sysq = _system(9, 1.3, 2, 6, 1.1)
    times = np.linspace(0.0, 5.0, 9)
    rows = amplitude_profiles(sysq, times)
    for i, t in enumerate(times):
        assert np.max(np.abs(rows[i] - amplitude_profiles(sysq, [float(t)])[0])) < 1e-13


def _dense_corrections(spec, nd, q, t):
    """(A, I, K) at time t from the dense parity-split propagation:
    A = psi - G, I = |psi|^2 - |G|^2 - |A|^2, K = |A|^2."""
    psi = dense_wave_function(spec, nd, q, [t])[0]
    A = psi - green_profiles(spec, [t])[0]
    K = np.abs(A) ** 2
    return A, np.abs(psi) ** 2 - _free_occupation(spec, t) - K, K


def test_corrections_match_dense_composition():
    # I = |psi|^2 - |G|^2 - |A|^2 and K = |A|^2 with psi from dense propagation
    spec = LatticeSpec(6, 1.0, 2)
    sysq = build_defect_system(spec, DefectSpec(4, 1.5))
    for t in (0.7, 2.0):
        A, I2, K2 = _dense_corrections(spec, 4, 1.5, t)
        I1, K1 = corrections(sysq, t)
        assert np.max(np.abs(amplitude_profile(sysq, t) - A)) < 1e-12
        assert np.max(np.abs(I1 - I2)) < 1e-12
        assert np.max(np.abs(K1 - K2)) < 1e-12


def test_corrections_sum_to_zero_and_K_nonnegative():
    sysq = _system(10, 0.7, 3, 8, -2.2)
    for t in (0.3, 1.1, 6.0):
        I, K = corrections(sysq, t)
        assert abs((I + K).sum()) < 1e-12
        assert np.all(K >= 0.0)


def test_corrections_against_oracle_decomposition():
    spec = LatticeSpec(6, 1.0, 2)
    sysq = build_defect_system(spec, DefectSpec(4, 1.5))
    dec = defect_decomposition(spec, 4, 1.5)
    t = 2.0
    I, K = corrections(sysq, t)
    psi = evolve_exact(dec, 2, t)
    A = psi - green_profiles(spec, [t])[0]
    K_oracle = np.abs(A) ** 2
    I_oracle = np.abs(psi) ** 2 - _free_occupation(spec, t) - K_oracle
    assert np.max(np.abs(K - K_oracle)) < 1e-10
    assert np.max(np.abs(I - I_oracle)) < 1e-10


def test_occupation_defect_against_oracle_spec_example():
    spec = LatticeSpec(8, 1.0, 1)
    sysq = build_defect_system(spec, DefectSpec(5, 2.3))
    dec = defect_decomposition(spec, 5, 2.3)
    for t in (0.5, 1.0, 2.0, 5.0):
        P = occupation_defect(sysq, t)
        assert np.max(np.abs(P - occupation_exact(dec, 1, t))) < 1e-8
        assert abs(P.sum() - 1.0) < 1e-10


def test_occupation_defect_random_tuples():
    rng = np.random.default_rng(101)
    for _ in range(20):
        N = int(rng.integers(4, 65))
        gamma = float(rng.uniform(0.5, 2.0))
        q = float(rng.uniform(-10, 10)) or 1.0
        n0, nd = int(rng.integers(0, N)), int(rng.integers(0, N))
        spec = LatticeSpec(N, gamma, n0)
        sysq = build_defect_system(spec, DefectSpec(nd, q))
        dec = defect_decomposition(spec, nd, q)
        for t in rng.uniform(0.0, 50.0 / gamma, size=3):
            P = occupation_defect(sysq, float(t))
            assert np.max(np.abs(P - occupation_exact(dec, n0, float(t)))) < 1e-8


def test_occupation_zero_strength_reduces_to_free():
    spec = LatticeSpec(9, 1.0, 4)
    sys0 = build_defect_system(spec, DefectSpec(6, 0.0))
    for t in (0.0, 1.7):
        assert np.max(np.abs(occupation_defect(sys0, t) - _free_occupation(spec, t))) == 0.0
    I, K = steady_corrections(sys0)
    assert np.all(I == 0.0) and np.all(K == 0.0)


def test_occupation_series_matches_pointwise():
    sysq = _system(7, 1.917, 1, 4, -1.3)
    times = np.linspace(0.0, 4.0, 11)
    rows = occupation_defect_series(sysq, times)
    for i, t in enumerate(times):
        assert np.max(np.abs(rows[i] - occupation_defect(sysq, float(t)))) < 1e-13


def test_occupation_series_memory_is_bounded():
    # a 17-time series at N = 800 peaked at 7.5 MiB with its (401, 800)
    # weight matrix; from the row pass's spectra it takes 5.2 MiB
    sysq = _system(800, 1.0, 5, 300, -2.3)
    times = np.linspace(0.0, 1600.0, 17)
    tracemalloc.start()
    try:
        occupation_defect_series(sysq, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def test_occupation_series_memory_below_kernel_bound():
    sysq = _system(800, 1.0, 5, 300, -2.3)
    times = np.linspace(0.0, 1600.0, 17)
    tracemalloc.start()
    try:
        occupation_defect_series(sysq, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_occupation_series_memory_at_n6000_forms_no_weights():
    # the (3001, 6000) weight matrix took 137 MiB: a 17-time series peaked
    # at 145 MiB with it, and at 9.9 MiB without it
    sysq = _system(6000, 1.0, 3, 7, 0.5)
    times = np.linspace(0.0, 100.0, 17)
    tracemalloc.start()
    try:
        P = occupation_defect_series(sysq, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.shape == (17, 6000)
    assert peak < 16 * 2 ** 20


def test_reflection_symmetry_about_defect():
    # P is invariant under reflecting n and n0 through nd
    N, nd, n0, q, t = 12, 7, 3, 2.2, 2.3
    Pa = occupation_defect(_system(N, 1.0, n0, nd, q), t)
    n0_ref = (2 * nd - n0) % N
    Pb = occupation_defect(_system(N, 1.0, n0_ref, nd, q), t)
    n = np.arange(N)
    assert np.max(np.abs(Pa[(2 * nd - n) % N] - Pb[n])) < 1e-10


def test_normalization_drift_detection():
    # a one-defect system whose row pass is off: its offsets 5 % too large
    sysq = _system(8, 1.0, 1, 4, 1.7)
    broken = dataclasses.replace(sysq, rows=dataclasses.replace(sysq.rows, offset=sysq.rows.offset * 1.05))
    with pytest.raises(NormalizationDrift):
        occupation_defect(broken, 2.0)
    with pytest.raises(NormalizationDrift):
        moment_defect_series(broken, 2, [0.5, 2.0])


def test_steady_corrections_match_oracle_time_average():
    spec = LatticeSpec(12, 1.0, 2)
    sysq = build_defect_system(spec, DefectSpec(7, 3.0))
    dec = defect_decomposition(spec, 7, 3.0)
    P = steady_occupation(sysq).values
    assert np.max(np.abs(P - time_average_exact(dec, 2))) < 1e-8


def test_steady_corrections_are_long_time_average_of_time_resolved():
    spec = LatticeSpec(6, 1.0, 0)
    sysq = build_defect_system(spec, DefectSpec(4, 1.5))
    T = 500 * spec.N / spec.gamma
    times = np.linspace(0.0, T, 150001)
    G = green_profiles(spec, times)
    A = amplitude_profiles(sysq, times)
    I_avg = np.trapezoid(2.0 * (np.conj(G) * A).real, times, axis=0) / T
    K_avg = np.trapezoid(np.abs(A) ** 2, times, axis=0) / T
    Ibar, Kbar = steady_corrections(sysq)
    assert np.max(np.abs(I_avg - Ibar)) < 5e-3
    assert np.max(np.abs(K_avg - Kbar)) < 5e-3


def test_steady_occupation_monotone_when_started_on_defect():
    spec = LatticeSpec(50, 1.0, 2)
    vals = [steady_occupation(build_defect_system(spec, DefectSpec(2, q))).values[2]
            for q in (0.5, 1.0, 2.0, 5.0, 20.0, 80.0)]
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] > 0.97


def test_moments_zero_strength_and_against_oracle():
    spec = LatticeSpec(10, 1.0, 3)
    sys0 = build_defect_system(spec, DefectSpec(6, 0.0))
    times = np.linspace(0.0, 5.0, 7)
    assert np.max(np.abs(moment_defect_series(sys0, 2, times)
                         - moment_series(2, times, spec))) < 1e-12
    sysq = build_defect_system(spec, DefectSpec(6, 1.7))
    dec = defect_decomposition(spec, 6, 1.7)
    d2 = distance_powers(spec, 2)
    msd_oracle = float(d2 @ time_average_exact(dec, 3))
    assert abs(steady_moment_defect(sysq, 2) - msd_oracle) < 1e-8
    t = 2.4
    P = occupation_exact(dec, 3, t)
    assert abs(moment_defect_series(sysq, 2, [t])[0] - float(d2 @ P)) < 1e-8


def test_minimum_chain_size():
    spec = LatticeSpec(3, 1.0, 0)
    for q in (1.3, -0.9, 25.0):
        sysq = build_defect_system(spec, DefectSpec(1, q))
        dec = defect_decomposition(spec, 1, q)
        check_defect_roots(sysq, dec)
        for t in (0.4, 2.0):
            assert np.max(np.abs(occupation_defect(sysq, t)
                                 - occupation_exact(dec, 0, t))) < 1e-10
        assert np.max(np.abs(steady_occupation(sysq).values
                             - time_average_exact(dec, 0))) < 1e-10


def test_steady_profile_plus_corrections_is_normalized():
    for (N, nd, n0, q) in [(17, 5, 5, 4.0), (24, 11, 3, -6.0), (50, 4, 2, 0.05)]:
        sysq = _system(N, 1.0, n0, nd, q)
        prof = steady_occupation(sysq)
        assert abs(prof.values.sum() - 1.0) < 1e-10
        Ibar, Kbar = steady_corrections(sysq)
        assert np.all(Kbar >= 0.0)
        assert np.max(np.abs(steady_profile(LatticeSpec(N, 1.0, n0)).values
                             + Ibar + Kbar - prof.values)) < 1e-15


# ---------------------------------------------------------------------------
# The eigenvector form against the dense parity-split propagation
# (parity_dense), also at the nearly degenerate spectra of small |q|.
# ---------------------------------------------------------------------------

def _within_rounding_of_level(system):
    """Whether some root rounds to the same double as a free level
    cos(2 pi k / N), k = 0..N-1 (k and N - k may round apart)."""
    c = np.cos(2.0 * np.pi * np.arange(system.spec.N) / system.spec.N)
    return bool(np.isin(system.x, c).any())


@pytest.mark.parametrize("N, n0, nd, q", [
    (50, 2, 4, 1e-14), (50, 2, 4, -1e-14), (51, 3, 10, 1e-14), (51, 3, 10, -1e-14),
    (400, 5, 100, 1e-13), (2000, 7, 900, 1e-12),
])
def test_series_exact_coincidence_against_dense(N, n0, nd, q):
    # roots within rounding of a free level: their rows take the gap at the
    # own level from the solver's offset
    sysq = _system(N, 1.0, n0, nd, q)
    assert _within_rounding_of_level(sysq)
    times = np.linspace(0.0, 4.0 * N, 9)
    P = occupation_defect_series(sysq, times)
    assert np.max(np.abs(P - dense_occupation(LatticeSpec(N, 1.0, n0), nd, q, times))) < 1e-12


@pytest.mark.parametrize("N, gamma, n0, nd, q", [
    (61, 1.0, 4, 40, 6.0), (61, 1.0, 4, 40, -6.0),      # bound state above / below the band
    (60, 0.7, 9, 9, 2.5), (45, 1.3, 22, 22, -30.0),     # start on the defect
    (50, 1.0, 2, 4, 1e-9), (80, 1.0, 0, 33, -1e-7),     # poles within ~q of a level
])
def test_series_against_dense(N, gamma, n0, nd, q):
    sysq = _system(N, gamma, n0, nd, q)
    times = np.linspace(0.0, 4.0 * N / gamma, 17)
    P = occupation_defect_series(sysq, times)
    assert np.max(np.abs(P - dense_occupation(LatticeSpec(N, gamma, n0), nd, q, times))) < 1e-12


def test_corrections_match_dense_composition_odd_and_bound():
    for N, n0, nd, q in [(7, 1, 4, -3.0), (9, 2, 2, 5.0), (8, 0, 5, 0.4)]:
        spec = LatticeSpec(N, 1.0, n0)
        sysq = build_defect_system(spec, DefectSpec(nd, q))
        for t in (0.3, 2.5, 11.0):
            A, I2, K2 = _dense_corrections(spec, nd, q, t)
            I1, K1 = corrections(sysq, t)
            assert np.max(np.abs(amplitude_profile(sysq, t) - A)) < 1e-12
            assert np.max(np.abs(I1 - I2)) < 1e-12
            assert np.max(np.abs(K1 - K2)) < 1e-12


def test_steady_corrections_computed_once_per_system(monkeypatch):
    # S_n = sum_j W_jn^2 is formed once, in one row pass and with no weight
    # matrix, and serves the profile, the corrections and the moments; the
    # profile stays Pbar0 + Ibar + Kbar
    sysq = _system(30, 1.0, 2, 11, 1.7)
    passes = []
    row_pass = single_defect._weight_rows
    monkeypatch.setattr(single_defect, "_weight_rows", lambda *a: passes.append(a[-1]) or row_pass(*a))
    prof = steady_occupation(sysq).values
    m1, m2 = steady_moment_defect(sysq, 1), steady_moment_defect(sysq, 2)
    Ibar, Kbar = steady_corrections(sysq)
    assert passes == [(11,)]
    assert np.array_equal(prof, steady_profile(sysq.spec).values + Ibar + Kbar)
    for p, m in ((1, m1), (2, m2)):
        assert abs(m - float(distance_powers(sysq.spec, p) @ prof)) < 1e-14 * m


@pytest.mark.parametrize("N, gamma, n0, nd, q", [(12, 1.3, 2, 7, 0.9), (12, 1.3, 2, 7, 1e-16),
                                                  (400, 1.0, 5, 100, 1e-13)])
def test_pole_within_rounding_of_its_level_against_dense(N, gamma, n0, nd, q):
    # P_n(t), A, I/K and Pbar against the dense parity split, also where a
    # root lies within rounding of its level (|q| = 1e-16 at N=12, 1e-13 at N=400)
    spec = LatticeSpec(N, gamma, n0)
    sysq = build_defect_system(spec, DefectSpec(nd, q))
    assert _within_rounding_of_level(sysq) == (q < 1e-3)
    times = np.linspace(0.0, 40.0, 9)
    P = occupation_defect_series(sysq, times)
    assert np.max(np.abs(P - dense_occupation(spec, nd, q, times))) < 1e-12
    for t in times[1::3]:
        A, I, K = _dense_corrections(spec, nd, q, t)
        assert np.max(np.abs(amplitude_profile(sysq, t) - A)) < 1e-12
        I1, K1 = corrections(sysq, t)
        assert np.max(np.abs(I1 - I)) < 1e-12 and np.max(np.abs(K1 - K)) < 1e-12
    Pbar, Ibar, Kbar = dense_steady_terms(spec, nd, q)
    got_I, got_K = steady_corrections(sysq)
    assert np.max(np.abs(got_I - Ibar)) < 1e-12 and np.max(np.abs(got_K - Kbar)) < 1e-12
    assert np.max(np.abs(steady_occupation(sysq).values - Pbar)) < 1e-12


def test_steady_corrections_memory_is_blocked():
    # N = 2000 has 1001 weight rows: the steady sums read them in place,
    # and the rows are built over blocks of at most BLOCK_ELEMENTS
    sysq = _system(2000, 1.0, 3, 700, 0.8)
    assert sysq.x.size == 1001
    tracemalloc.start()
    try:
        steady_corrections(sysq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_phi_memory_is_blocked():
    # the (T, J) phase matrix at N = 2000, T = 4096 took 125 MiB in one piece
    phi = phi_series(_system(2000, 1.0, 3, 700, 0.8))
    times = np.linspace(0.0, 4000.0, 4096)
    tracemalloc.start()
    try:
        phi(times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_phi_blocks_equal_one_phase_matrix():
    # Phi = i sum_j c_j exp(2 i gamma x_j t) on the shared time kernel: its
    # blocks of times give the bits of one unblocked cos/sin evaluation over
    # the whole grid, and one time alone the bits of its row there
    phi = phi_series(_system(300, 1.0, 3, 100, -1.3))
    times = np.random.default_rng(5).uniform(0.0, 600.0, 8000)
    phase = 2.0 * phi.gamma * times[:, None] * phi.x
    whole = 1j * (np.einsum("tj,j->t", np.cos(phase), phi.amplitudes)
                  + 1j * np.einsum("tj,j->t", np.sin(phase), phi.amplitudes))
    assert len(time_blocks(times.size, phi.x.size + 1)) == 2
    assert np.array_equal(phi(times), whole)
    assert phi(times[7]) == whole[7]


def _even_sector(N, q):
    """The mpmath context (dps 34) and the eigenvectors Y of the even sector
    about nd (gamma = 1): its tridiagonal block in the bases |nd> and
    |nd + m> + |nd - m> (m = 1..N//2; |nd + N/2> alone for even N)."""
    import mpmath
    mp = mpmath.mp.clone()
    mp.dps = 34
    K = N // 2
    T = mp.zeros(K + 1, K + 1)
    T[0, 0] = -mp.mpf(q)
    for m in range(K):
        edge = m == 0 or (N % 2 == 0 and m + 1 == K)       # one site paired with two
        T[m, m + 1] = T[m + 1, m] = -mp.sqrt(2) if edge else -1
    if N % 2:
        T[K, K] = -1                                       # nd +- K are neighbours
    return mp, mp.eigsy(T)[1]


def _even_sector_moments(N, q):
    """Steady Delta_1 and Delta_2 for n0 = nd from mpmath: the state never
    leaves the even sector about nd, and Delta_p = sum_m m^p sum_j Y_mj^2 Y_0j^2."""
    mp, Y = _even_sector(N, q)
    K = N // 2
    weight = [mp.fsum(Y[m, j] ** 2 * Y[0, j] ** 2 for j in range(K + 1)) for m in range(K + 1)]
    return [float(mp.fsum(mp.mpf(m) ** p * weight[m] for m in range(K + 1))) for p in (1, 2)]


def _even_sector_steady(spec, nd, q):
    """S_n over the ring and the steady Delta_1, Delta_2 for any n0 from
    mpmath: with m and d the distances of n and n0 from nd, the even levels
    give S_n = u_m u_d sum_j Y_mj^2 Y_dj^2 (u = 1/2 for a site paired with
    another, else 1), and the odd ones Obar_n = sum_k o_k(n)^2 in closed
    form (_free_level_sums)."""
    N, n0 = spec.N, spec.n0
    mp, Y = _even_sector(N, q)
    K = N // 2
    u = [mp.mpf(1) if m == 0 or 2 * m == N else mp.mpf(1) / 2 for m in range(K + 1)]
    m = [min((n - nd) % N, (nd - n) % N) for n in range(N)]
    d = m[n0]
    half = [u[a] * u[d] * mp.fsum(Y[a, j] ** 2 * Y[d, j] ** 2 for j in range(K + 1)) for a in range(K + 1)]
    sin_d = [mp.sin(2 * mp.pi * k * (n0 - nd) / N) for k in range(1, (N + 1) // 2)]
    odd = [mp.fsum((2 * mp.sin(2 * mp.pi * k * (n - nd) / N) * s / N) ** 2 for k, s in enumerate(sin_d, 1))
           for n in range(N)]
    dist = [min((n - n0) % N, (n0 - n) % N) for n in range(N)]
    moments = [float(mp.fsum(mp.mpf(dist[n]) ** p * (half[m[n]] + odd[n]) for n in range(N))) for p in (1, 2)]
    return np.array([float(half[a]) for a in m]), moments


@pytest.mark.parametrize("N, q", [(60, 100.0), (61, 50.0)])
def test_steady_moments_localized_on_defect_against_mpmath(N, q):
    # started on a strong defect the state stays localized; Delta_p as a sum
    # of positive terms keeps its digits (the free moment plus corrections
    # cancelled to ~1e-12)
    sysq = _system(N, 1.0, 2, 2, q)
    for p, want in zip((1, 2), _even_sector_moments(N, q)):
        assert abs(steady_moment_defect(sysq, p) - want) < 5e-14 * want


@pytest.mark.parametrize("N, n0, nd, q", [(60, 2, 4, 0.68), (61, 2, 7, -2.5), (60, 0, 30, 1e-12),
                                          (61, 30, 4, 100.0), (60, 30, 4, -1e8), (61, 59, 1, -1e-12)])
def test_level_sums_and_moments_against_mpmath(N, n0, nd, q):
    # S, summed over half the frame, and the steady moments of a start off
    # the defect: at most 7.4e-16 of max S and 4.0e-16 relative measured
    # (N = 60, 61, ten geometries, |q| from 1e-12 to 1e8)
    sysq = _system(N, 1.0, n0, nd, q)
    S, moments = _even_sector_steady(sysq.spec, nd, q)
    assert np.max(np.abs(sysq._level_sum - S)) < 1.5e-15 * S.max()
    for p, want in zip((1, 2), moments):
        assert abs(steady_moment_defect(sysq, p) - want) < 1e-15 * want


@pytest.mark.parametrize("N", [3, 4, 7, 50, 51, 512, 513, 2000])
def test_level_sums_are_even_about_the_defect(N):
    # S is summed over m = 0..N/2 from the defect and mirrored: exactly even
    spec = LatticeSpec(N, 1.0, N // 3)
    sites, strengths = [0, N // 2, N - 1, 5 % N], [1e-12, -0.37, 2.2, -1e8]
    m = np.arange(N)
    for systems in defect_systems(spec, sites, strengths):
        for nd, system in zip(sites, systems):
            S = system._level_sum
            assert np.array_equal(S[(nd + m) % N], S[(nd - m) % N])


@pytest.mark.parametrize("N, n0, nd, q", [(12, 2, 7, 3.0), (13, 0, 12, -0.4), (40, 5, 5, 1e3),
                                          (41, 9, 30, -25.0)])
def test_steady_terms_against_dense(N, n0, nd, q):
    # Ibar, Kbar and Pbar against the dense parity split, term by term
    spec = LatticeSpec(N, 1.0, n0)
    sysq = build_defect_system(spec, DefectSpec(nd, q))
    Pbar, Ibar, Kbar = dense_steady_terms(spec, nd, q)
    got_I, got_K = steady_corrections(sysq)
    assert np.max(np.abs(got_I - Ibar)) < 1e-13
    assert np.max(np.abs(got_K - Kbar)) < 1e-13
    assert np.max(np.abs(steady_occupation(sysq).values - Pbar)) < 1e-13
