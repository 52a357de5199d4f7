"""Property tests of the single-defect pole set, time-resolved and steady
profiles against a dense diagonalization of the defected ring, over N in
[3, 300], |q| in [1e-12, 1e8] of either sign, and any start and defect
sites.  The profiles are checked against the dense propagation split by
reflection parity about the defect (parity_dense)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from defectchain.lattice import LatticeSpec
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


def _ring_x(spec, nd, q):
    """-H / (2 gamma) for the ring with -gamma on every bond and -q on site
    nd: its eigenvalues are the levels in the pole variable x = -E / (2 gamma)."""
    N = spec.N
    i = np.arange(N)
    Hx = np.zeros((N, N))
    Hx[i, (i + 1) % N] = Hx[(i + 1) % N, i] = 0.5
    Hx[nd, nd] = q / (2.0 * spec.gamma)
    return Hx


def _classes(x, scale):
    """Index groups of numerically degenerate levels (x ascending)."""
    return np.split(np.arange(x.size), np.nonzero(np.diff(x) > 1e-9 * scale)[0] + 1)


@SETTINGS
@given(rings())
def test_retained_poles_are_dense_levels(ring):
    spec, nd, q = ring
    system = build_defect_system(spec, DefectSpec(nd, q))
    scale = 1.0 + abs(q) / (2.0 * spec.gamma)
    # every retained pole is a level of the defected ring ...
    levels = np.linalg.eigvalsh(_ring_x(spec, nd, q))
    assert np.all(np.min(np.abs(system.x[:, None] - levels[None, :]), axis=1) <= 1e-10 * scale)
    # ... and every level class that couples nd to n0 well above the
    # residue cut is a retained pole
    x, V = np.linalg.eigh(_ring_x(spec, nd, q))
    for c in _classes(x, scale):
        if abs(V[nd, c] @ V[spec.n0, c]) > 1e-6:
            assert np.min(np.abs(system.x - x[c].mean())) <= 1e-10 * scale


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
    want = dense_occupation(spec.N, spec.gamma, spec.n0, nd, q, times)
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
