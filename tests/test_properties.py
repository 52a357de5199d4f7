"""Property tests of the single-defect pole set, time-resolved and steady
profiles against a dense diagonalization of the defected ring, over N in
[3, 300], |q| in [1e-12, 1e8] of either sign, and any start and defect
sites.  The reference is the ring split by reflection parity about the
defect (oracle.defect_decomposition, and parity_dense over it)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from defectchain.lattice import LatticeSpec
from defectchain.oracle import defect_decomposition
from defectchain.single_defect import (DefectSpec, build_defect_system, occupation_defect_series,
                                       steady_corrections, steady_occupation)
from parity_dense import dense_occupation, dense_steady_terms

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def rings(draw):
    N = draw(st.integers(3, 300))
    n0 = draw(st.integers(0, N - 1))
    nd = draw(st.integers(0, N - 1))
    q = draw(st.sampled_from((1.0, -1.0))) * 10.0 ** draw(st.floats(-12.0, 8.0))
    gamma = draw(st.sampled_from((1.0, 0.7, 1.3)))
    return LatticeSpec(N, gamma, n0), nd, q


@SETTINGS
@given(rings())
def test_retained_poles_are_dense_levels(ring):
    """One to one: the roots are the even sector's levels, and the odd
    sector keeps the odd free levels."""
    spec, nd, q = ring
    system = build_defect_system(spec, DefectSpec(nd, q))
    scale = 1.0 + abs(q) / (2.0 * spec.gamma)
    x = defect_decomposition(spec, nd, q).eigenvalues / (-2.0 * spec.gamma)
    even = spec.N // 2 + 1
    assert np.max(np.abs(system.x - np.sort(x[:even]))) <= 1e-10 * scale
    odd_free = np.cos(2.0 * np.pi * np.arange(1, spec.N - even + 1) / spec.N)
    assert np.max(np.abs(np.sort(x[even:]) - np.sort(odd_free))) <= 1e-10 * scale


@SETTINGS
@given(rings())
def test_steady_occupation_is_dense_time_average(ring):
    """Neither parity sector holds a degenerate pair, so the dense time
    average is a sum of squares at any |q|."""
    spec, nd, q = ring
    want = dense_steady_terms(spec, nd, q)[0]
    got = steady_occupation(build_defect_system(spec, DefectSpec(nd, q))).values
    assert np.max(np.abs(got - want)) < 1e-8


@SETTINGS
@given(rings())
def test_occupation_series_is_dense_propagation(ring):
    spec, nd, q = ring
    times = np.linspace(0.0, 4.0 * spec.N / spec.gamma, 9)
    got = occupation_defect_series(build_defect_system(spec, DefectSpec(nd, q)), times)
    want = dense_occupation(spec, nd, q, times)
    assert np.max(np.abs(got - want)) < 1e-12


@SETTINGS
@given(rings(), st.floats(-12.0, 8.0), st.sampled_from((1.0, -1.0)))
def test_interference_does_not_depend_on_q(ring, log_q2, sign):
    # Ibar = -2 sum_k e_k (e_k + o_k) holds only free-level terms; the dense
    # Ibar = Pbar - Pbar_free - Kbar at two strengths agrees with it
    spec, nd, q = ring
    Ibar = steady_corrections(build_defect_system(spec, DefectSpec(nd, q)))[0]
    for strength in (q, sign * 10.0 ** log_q2):
        assert np.max(np.abs(Ibar - dense_steady_terms(spec, nd, strength)[1])) < 1e-12
