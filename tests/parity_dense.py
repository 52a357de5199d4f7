"""Dense one-defect reference, split by reflection parity about the defect.

Reflection n -> 2 nd - n commutes with the ring Hamiltonian (-gamma on every
bond, -q on site nd).  In the bases |nd + m> + |nd - m> and |nd + m> - |nd - m>
each sector is a tridiagonal matrix with the defect entry in its first
corner, which implicit QL/QR (LAPACK `dstev`) diagonalizes to working
accuracy in every level even at |q| ~ 1e8.  On the full ring matrix each
level loses eps |q|, and divide and conquer (`np.linalg.eigh`) loses up to
3e-10 in P_n(t) on the tridiagonal sectors at |q| ~ 1e7, N ~ 300.
No sector holds a degenerate pair, so a time average is a sum of squares.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

from defectchain.lattice import LatticeSpec
from defectchain.oracle import SpectralDecomposition, build_hamiltonian, time_average_exact


def parity_sectors(N, gamma, nd, q):
    """[(E, V)] for the even and the odd sector, V holding the eigenvectors
    over all N sites as columns."""
    H = build_hamiltonian(LatticeSpec(N, gamma, 0), [(nd, q)])
    sectors = []
    for sign, m in ((1.0, np.arange(N // 2 + 1)), (-1.0, np.arange(1, (N - 1) // 2 + 1))):
        U = np.zeros((N, m.size))
        U[(nd + m) % N, np.arange(m.size)] += 1.0
        U[(nd - m) % N, np.arange(m.size)] += sign
        U /= np.linalg.norm(U, axis=0)
        T = U.T @ H @ U
        E, Y = eigh_tridiagonal(np.diag(T), np.diag(T, 1), lapack_driver="stev")
        sectors.append((E, U @ Y))
    return sectors


def dense_wave_function(N, gamma, n0, nd, q, times):
    """psi(n, t) rows for the start site n0, shape (len(times), N)."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return sum((V * V[n0]) @ np.exp(-1j * np.outer(E, times)) for E, V in parity_sectors(N, gamma, nd, q)).T


def dense_occupation(N, gamma, n0, nd, q, times):
    """P_n(t) rows, shape (len(times), N)."""
    psi = dense_wave_function(N, gamma, n0, nd, q, times)
    return psi.real ** 2 + psi.imag ** 2


def dense_steady_terms(spec, nd, q):
    """(Pbar, Ibar, Kbar): Kbar = time average of |psi - G|^2, the even-sector
    weights squared plus the free even-sector weights squared (the odd
    sectors of psi and G agree), and Ibar = Pbar - Pbar_free - Kbar."""
    (E, V), odd = parity_sectors(spec.N, spec.gamma, nd, q)
    free = parity_sectors(spec.N, spec.gamma, nd, 0.0)[0][1]
    W = V * V[spec.n0]
    Pbar = (W ** 2).sum(axis=1) + ((odd[1] * odd[1][spec.n0]) ** 2).sum(axis=1)
    Kbar = (W ** 2).sum(axis=1) + ((free * free[spec.n0]) ** 2).sum(axis=1)
    Pfree = time_average_exact(SpectralDecomposition.from_hamiltonian(build_hamiltonian(spec)), spec.n0)
    return Pbar, Pbar - Pfree - Kbar, Kbar
