"""Dense one-defect reference for the tests: oracle.defect_decomposition
(the ring split by reflection parity about the defect), propagated exactly
and time-averaged.  No sector holds a degenerate pair, so a time average
is a sum of squares at any |q|."""

import numpy as np

from defectchain.oracle import defect_decomposition, evolve_exact, time_average_exact


def dense_wave_function(spec, nd, q, times):
    """psi(n, t) rows for the start site spec.n0, shape (len(times), N)."""
    dec = defect_decomposition(spec, nd, q)
    return np.array([evolve_exact(dec, spec.n0, t) for t in np.atleast_1d(times)])


def dense_occupation(spec, nd, q, times):
    """P_n(t) rows, shape (len(times), N)."""
    psi = dense_wave_function(spec, nd, q, times)
    return psi.real ** 2 + psi.imag ** 2


def dense_steady_terms(spec, nd, q):
    """(Pbar, Ibar, Kbar): Kbar = time average of |psi - G|^2, the even-sector
    weights squared plus the free even-sector weights squared (the odd
    sectors of psi and G agree), and Ibar = Pbar - Pbar_free - Kbar."""
    dec, free = defect_decomposition(spec, nd, q), defect_decomposition(spec, nd, 0.0)
    even = spec.N // 2 + 1
    Kbar = sum(((d.eigenvectors[:, :even] * d.eigenvectors[spec.n0, :even]) ** 2).sum(axis=1)
               for d in (dec, free))
    Pbar = time_average_exact(dec, spec.n0)
    return Pbar, Pbar - time_average_exact(free, spec.n0) - Kbar, Kbar
