"""Any number of on-site defects through the free ring Green function.

With x = -E / 2 gamma, levels c_k = cos(2 pi k / N), s_a = q_a / 2 gamma and
g(d; x) = (1/N) sum_k cos(2 pi k d / N) / (x - c_k), x off the levels is an
eigenvalue iff F(x) = g_D(x) - S^-1 (g on the defect sites) is singular.
dg/dx <= 0, so F's sorted eigenvalues fall between levels, and a level whose
modes have rank r on the defect sites sends r of them from -inf to +inf: every
root has a known branch in a known interval.  Each root is solved by
spectral._safeguarded_newton in its offset from a level, on a congruent form
of F with that level's pole split off, the slope being z^T F' z (after Bunch,
Nielsen & Sorensen 1978 and Gu & Eisenstat 1994).  The equilibration D and the
SVD of D V are held for a root's whole solve: its level's in band, and those
at its bracket midpoint outside the band.  A level keeps its modes that
vanish on every defect, and is a root where g_D's regular part there,
compressed onto the null space of its pole, is singular with S^-1.
Eigenvectors v(n) = sum_a g(n - nd_a; x) alpha_a are formed with that level's
term split off, one inverse real FFT each; P_n(t) = |sum_j e^(2 i gamma x_j t)
v_j(n) v_j(n0)|^2.  Every pass over roots x levels (the level signs, the node
test, the Newton sums, alpha, the eigenvector FFTs) runs over cache-sized
blocks of rows in one buffer per build, each row's gaps gathered from the
(N/2 + 1)^2 table of level gaps: a build holds W, that table and one block.
With fewer than two nonzero strengths the system is
single_defect's, so a single defect's roots come from spectral.find_poles alone.
Its referees, the dense ring and the Bromwich inverter, are in oracle.py.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DuplicateDefectSite, NonSimplePole, PoleCountMismatch
from .homogeneous import CACHE_ELEMENTS, time_blocks
from .lattice import LatticeSpec, site_index
from .single_defect import (DefectSpec, DefectSystem, _free_system,
                            build_defect_system, occupation_defect)
from .spectral import _cos_sin, _gaps_theta, _safeguarded_newton

RANK_TOL = 1e-8        # rank cut for level modes on the defect sites, relative to sqrt(2/N)
ZERO_TOL = 300 * np.finfo(float).eps        # compressed secular eigenvalue taken as zero,
AMBIGUOUS_TOL = 1000 * np.finfo(float).eps  # and up to here ambiguous, per unit of `noise`
MERGE_TOL = 1e-13      # roots this close, relative to their bracket, share null vectors
CLUSTER_TOL = 1e-1     # roots this close to their level, in (2 pi / N)^2, join its Rayleigh-Ritz group

two_defect_occupation = occupation_defect   # the name the benchmark's time_series workload calls


def _congruent(A, U, sv, r, delta):
    """T = S U^T F U S, S and the pole diagonal d for F = U diag(sv^2, 0) U^T /
    delta + A (delta = x - c_ref, A the regular part), S = min(sqrt|delta| / sv,
    1) on the r pole columns: same inertia as F (Sylvester), no 1/delta next to
    the level, and |d| <= 1."""
    P, M = A.shape[:2]
    sv2, pole = np.zeros((P, M)), np.arange(M) < r[:, None]
    sv2[:, :sv.shape[1]] = sv ** 2
    S = np.where(pole, np.minimum(np.sqrt(np.abs(delta[:, None]) / np.where(pole, sv2, 1.0)), 1.0), 1.0)
    T = S[:, :, None] * (U.swapaxes(1, 2) @ A @ U) * S[:, None, :]
    d = np.where(pole, S * S * sv2 / delta[:, None], 0.0)
    T[:, np.arange(M), np.arange(M)] += d
    return T, S, d


def _rayleigh_ritz(vec, x, group, nd, s):
    """Normalize the eigenvectors in place and replace each group of several
    by its Rayleigh-Ritz pairs for H = C + S (x units)."""
    vec /= np.sqrt(np.einsum("jn,jn->j", vec, vec))[:, None]
    order = np.argsort(group, kind="stable")
    _, start, size = np.unique(group[order], return_index=True, return_counts=True)
    for c in np.unique(size[size > 1]):
        members = order[start[size == c][:, None] + np.arange(c)]
        # V, its two rolls, HV and the new vectors: 5 c N per member
        for b in time_blocks(members.shape[0], 5 * c * vec.shape[1], CACHE_ELEMENTS):
            V = vec[members[b]]
            HV = 0.5 * (np.roll(V, 1, axis=-1) + np.roll(V, -1, axis=-1))
            HV[..., nd] += s * V[..., nd]
            Li = np.linalg.inv(np.linalg.cholesky(V @ V.swapaxes(1, 2)))
            x[members[b]], Y = np.linalg.eigh(Li @ (V @ HV.swapaxes(1, 2)) @ Li.swapaxes(1, 2))
            vec[members[b]] = (Li.swapaxes(1, 2) @ Y).swapaxes(1, 2) @ V


def build_two_defect_system(defects: Sequence[DefectSpec], spec: LatticeSpec) -> DefectSystem:
    """Eigen-decomposition of the ring with any number of defects; raises
    DuplicateDefectSite, NonSimplePole (a level ambiguously a root) or
    PoleCountMismatch.  With fewer than two nonzero strengths it returns
    build_defect_system's system for the live defect, or the free system.
    F is used as D F D, D_a = (|g(0)| + 1/|s_a|)^-1/2: the same inertia, and
    O(1) entries for any strengths.  D is fixed per root, with g(0) taken at
    its level in band and at its bracket midpoint outside the band, so the
    SVD of D V is taken once per level and once per outer root."""
    N, gamma, n0 = spec.N, spec.gamma, spec.n0
    sites = [site_index(d.nd, N) for d in defects]
    if len(set(sites)) != len(sites):
        raise DuplicateDefectSite(f"defect sites {sites} are not distinct")
    live = [d for d in defects if d.q != 0.0]
    if len(live) < 2:
        return build_defect_system(spec, live[0]) if live else _free_system(spec, tuple(defects))
    nd = np.array([n for n, d in zip(sites, defects) if d.q != 0.0], dtype=int)
    s = np.array([d.q / (2.0 * gamma) for d in live])
    M, K, k = nd.size, N // 2, np.arange(N // 2 + 1)
    diff = (nd[:, None] - nd[None, :]) % N
    uniq, pair = np.unique(np.minimum(diff, N - diff), return_inverse=True)
    weights = lambda g0: 1.0 / np.sqrt(np.abs(g0)[..., None] + 1.0 / np.abs(s))
    scaled = lambda g, D: D[:, :, None] * g * D[:, None, :] - (D * D / s)[:, :, None] * np.eye(M)
    # g(d; x) = sum_k cos_uniq[k, d] / (x - c_k) at the distinct defect distances, dims[k] modes at level k
    dims = np.where((k == 0) | (2 * k == N), 1, 2)
    cos_uniq = (dims / N)[:, None] * _cos_sin((2 * k[:, None] * uniq) % (2 * N), N)[0]

    def regular(gaps, ref):
        """1 / (x - c_k) in place of the gaps x - c_k, without the term of level ref."""
        with np.errstate(divide="ignore"):
            np.divide(1.0, gaps, out=gaps)
        gaps[np.arange(ref.size), ref] = 0.0
        return gaps

    # The orthonormal cosine and sine modes of each level on the defect sites
    # V: rank r and invisible modes (rows r: of Vh); gaps between levels LG.
    cos_nd, sin_nd = _cos_sin((2 * k * nd[:, None]) % (2 * N), N)
    V = np.sqrt(dims / N)[:, None, None] * np.stack([cos_nd.T, sin_nd.T], axis=-1)
    sv, Vh = np.linalg.svd(V)[1:]
    r, ks = np.sum(sv > RANK_TOL * np.sqrt(2.0 / N), axis=1), sv.shape[1]
    LG = _gaps_theta(2 * k, N)                                           # c_k - c_k'

    # Every pass over roots x levels runs over cache-sized blocks of rows in
    # one buffer.  A row of the eigenvector pass holds its 1 / (x - c_k), its
    # complex spectra and a product (in the row of W it is about to fill); a
    # row of the other passes holds only its 1 / (x - c_k), so their blocks
    # take three times the rows.  A row's gaps are gathered from LG (not
    # recomputed: that took longer than the pass), so no (rows, levels)
    # array is formed.
    rows = min(N, max(1, CACHE_ELEMENTS // (4 * (K + 1))))   # no pass has more than N rows
    buffer = np.empty(3 * rows * (K + 1))

    def inverse_gaps(ref, delta=None, step=3 * rows):
        """For each block of `step` rows: its slice and 1 / (x - c_k) at x =
        c_ref + delta (at the level without delta), the term of level ref
        zeroed, as a view of the buffer."""
        for i in range(0, ref.size, step):
            b = slice(i, i + step)
            inv = buffer[:ref[b].size * (K + 1)].reshape(-1, K + 1)
            np.take(LG, ref[b], axis=0, out=inv, mode="clip")     # mode="raise" buffers its output
            if delta is not None:
                inv += delta[b, None]
            yield b, regular(inv, ref[b])

    def pair_sums(ref, delta, slope=False):
        """g on the defect pairs at x = c_ref + delta, its level's term split
        off; with slope also sum_k cos_k / (x - c_k)^2 on the pairs (-g') and
        sum_k dims_k |1 / (x - c_k)|, each row's rounding scale."""
        g = np.empty((2 if slope else 1, ref.size, uniq.size))
        scale = np.empty(ref.size)
        for b, inv in inverse_gaps(ref, delta):
            np.matmul(inv, cos_uniq, out=g[0, b])
            if slope:
                np.abs(inv, out=inv)
                np.matmul(inv, dims, out=scale[b])
                np.square(inv, out=inv)
                np.matmul(inv, cos_uniq, out=g[1, b])
        g = g[:, :, pair.reshape(M, M)]
        return (g[0], g[1], scale) if slope else g[0]

    def equilibrated(g, ref):
        """D and the SVD of D V at points with regular part g on the defect pairs."""
        Dx = weights(g[:, 0, 0])
        return (Dx,) + tuple(np.linalg.svd(Dx[:, :, None] * V[ref]))

    # Signs of the compressed regular part at each level, and the roots on it.
    G, level_scale = np.empty((K + 1, uniq.size)), np.empty(K + 1)
    for b, inv in inverse_gaps(k):
        np.matmul(inv, cos_uniq, out=G[b])
        np.abs(inv, out=inv).sum(axis=1, out=level_scale[b])
    G = G[:, pair.reshape(M, M)]
    D, U, sv_lev, Wh_lev = equilibrated(G, k)
    A = scaled(G, D)
    noise = (np.abs(A).max(axis=(1, 2), initial=0.0)     # rounding scale of the compressed values
             + (D * D).max(axis=1, initial=0.0) * level_scale)
    (neg, zero), lev_z = np.zeros((2, K + 1), int), np.zeros(0, int)
    alpha_z, c_z = np.zeros((0, M)), np.zeros((0, 2))                  # a level root's alpha and amplitude
    for rank in np.unique(r[r < M]):
        sel = np.nonzero(r == rank)[0]
        U0 = U[sel][:, :, rank:]
        w, Y = np.linalg.eigh(U0.swapaxes(1, 2) @ A[sel] @ U0)
        rel = np.abs(w) / noise[sel, None]
        if np.any((rel > ZERO_TOL) & (rel <= AMBIGUOUS_TOL)):
            raise NonSimplePole("a free level is neither clearly in nor out of the secular "
                                f"spectrum (margin {rel[rel > ZERO_TOL].min():.3g})")
        neg[sel], zero[sel] = np.sum((w < 0) & (rel > ZERO_TOL), axis=1), np.sum(rel <= ZERO_TOL, axis=1)
        li, col = np.nonzero(rel <= ZERO_TOL)
        lv, U0y = sel[li], U0[li] @ Y[li, :, col][..., None]
        # the level's amplitude -pinv(D V) D (G - S^-1) alpha, in D V's singular basis
        cw = -(U[lv][:, :, :rank].swapaxes(1, 2) @ A[lv] @ U0y)[..., 0] / sv_lev[lv, :rank]
        lev_z, alpha_z = np.append(lev_z, lv), np.concatenate([alpha_z, D[lv] * U0y[..., 0]])
        c_z = np.concatenate([c_z, np.einsum("jib,ji->jb", Wh_lev[lv, :rank], cw)])

    # Root branches per interval from the branch signs at its two ends:
    # theta in (theta_i, theta_i+1) for i < K, then x > 1, then the bottom.
    n_pos = int(np.sum(s > 0))
    lo_m = np.concatenate([neg[1:] + zero[1:], [neg[0] + zero[0], n_pos]])
    counts = np.concatenate([r[:-1] + neg[:-1], [n_pos, r[K] + neg[K]]]) - lo_m
    if np.any(counts < 0):
        raise PoleCountMismatch(f"negative root count in an interval: {counts[counts < 0]}")
    iv = np.repeat(np.arange(counts.size), counts)
    m = lo_m[iv] + np.arange(iv.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    R, pick = iv.size, np.arange(iv.size)

    # Each root is solved in its offset u > 0 from a level, x = c_ref + side u.
    # In band the branch sign at the odd node between levels i and i + 1 picks
    # the half interval; outside, the level is 0 (x > 1) or K (the bottom,
    # which for an odd ring also covers the stretch between c_K and -1).
    band, ib = iv < K, iv[iv < K]
    sin_half = lambda j: np.sin(np.pi * np.minimum(j, 2 * N - j) / (2 * N))  # sin(pi j / 2N)
    node = -2.0 * np.sin(np.pi / (2 * N)) * sin_half(4 * ib + 1)             # x_node - c_i
    at_node = _congruent(scaled(pair_sums(ib, node), D[ib]), U[ib], sv_lev[ib], r[ib], node)
    lower = np.linalg.eigvalsh(at_node[0])[pick[:ib.size], m[band] - 1] > 0  # root next to level i
    ref, side, hi = np.where(iv == K, 0, K), np.where(iv == K, 1.0, -1.0), np.full(R, 2.0 + np.abs(s).max())
    ref[band], side[band] = np.where(lower, ib, ib + 1), np.where(lower, -1.0, 1.0)
    hi[band] = 2.0 * np.sin(np.pi / (2 * N)) * sin_half(np.where(lower, 4 * ib + 1, 4 * ib + 3))
    # D and the SVD U sv Wh of D V are held for a root's whole solve: its
    # level's in band, and outside it those at its bracket midpoint, where a
    # far bound state's g(0) is nothing like its level's.  D F D keeps F's
    # inertia for any fixed D, so the branch index m holds.
    Dr, Ur, svr, Whr = D[ref], U[ref], sv_lev[ref], Wh_lev[ref]
    out, mid = ~band, side[~band] * (0.5 * hi[~band])
    Dr[out], Ur[out], svr[out], Whr[out] = equilibrated(pair_sums(ref[out], mid), ref[out])
    # A branch runs like a + b / u where it has its pole at the level, and
    # so does any branch once every pole term is past its knee (|d| < 1/2):
    # there the Newton step is taken on u lambda_m, a rational step exact for
    # that form.  Elsewhere the branch runs like a + b u.
    pole = np.where(side < 0, m <= r[ref], m > M - r[ref])
    last_u, last_sign = np.full(R, np.nan), np.zeros(R)

    def secular(idx, u):
        """lambda_m(T) at x = c_ref + side u (times u on a rational step) and
        its slope from z^T F' z, exact at the root (Hellmann-Feynman), with
        z = D U S y for T's eigenvector y."""
        delta, ri, Dx, Ux = side[idx] * u, ref[idx], Dr[idx], Ur[idx]
        g, g2, g_scale = pair_sums(ri, delta, slope=True)
        T, S, d = _congruent(scaled(g, Dx), Ux, svr[idx], r[ri], delta)
        lam, Y = np.linalg.eigh(T)
        lam, y = lam[pick[:idx.size], m[idx] - 1], Y[pick[:idx.size], :, m[idx] - 1]
        z = Dx * (Ux @ (S * y)[..., None])[..., 0]
        slope = side[idx] * (-np.einsum("pa,pab,pb->p", z, g2, z)
                             - np.sum(d * y * y, axis=1) / delta)
        rational = pole[idx] | np.all(np.abs(d) < 0.5, axis=1)
        scale = np.where(rational, u, 1.0)
        val, slope = scale * lam, scale * slope + np.where(rational, lam, 0.0)
        # A value within its rounding (eigh's, and g's along z) is a root.
        noise = np.sqrt(np.einsum("pab,pab->p", T, T)) + np.abs(z).sum(axis=1) ** 2 * g_scale / N
        val = np.where(np.abs(lam) <= np.finfo(float).eps * noise, 0.0, val)
        # A step across the level carries no scale: go to u / 256 instead.
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(u - val / slope <= 0.0, val / (u - u / 256.0), slope)
        # After a sign change, a step that would not halve the bracket bisects it.
        stall = (np.sign(val) * last_sign[idx] < 0) & (np.abs(val) > 0.5 * np.abs(slope * (u - last_u[idx])))
        last_u[idx], last_sign[idx] = u, np.sign(val)
        return val, np.where(stall, 0.0, slope)

    u = _safeguarded_newton(secular, np.zeros(R), hi, side > 0, tol=0.0)
    # (nearly) multiple roots from one side of one level share one point
    same = np.append(False, (np.diff(2 * ref + (side > 0)) == 0) & (np.abs(np.diff(u)) <= MERGE_TOL * hi[1:]))
    u = u[np.maximum.accumulate(np.where(same, 0, pick))]

    # The eigenvectors' rows: the R roots', then the level roots' and the
    # invisible modes' (delta = 0).
    delta = side * u
    inv_lev, inv_col = np.nonzero((np.arange(2) >= r[:, None]) & (np.arange(2) < dims[:, None]))
    ref = np.concatenate([ref, lev_z, inv_lev])
    # Each root's alpha = D U S y and its level's amplitude V^T alpha / delta =
    # Wh^T sv S y / delta (no cancellation in D V's singular basis); then the
    # level roots, and the invisible modes (alpha = 0).
    T, S, _ = _congruent(scaled(pair_sums(ref[:R], delta), Dr), Ur, svr, r[ref[:R]], delta)
    y = S * np.linalg.eigh(T)[1][pick, :, m - 1]
    cw = np.where(np.arange(ks) < r[ref[:R], None], svr * y[:, :ks] / delta[:, None], 0.0)
    alpha = np.concatenate([Dr * (Ur @ y[..., None])[..., 0], alpha_z, np.zeros((inv_lev.size, M))])
    c = np.concatenate([np.einsum("jib,ji->jb", Whr[:, :ks], cw), c_z, Vh[inv_lev, inv_col]])
    delta = np.concatenate([delta, np.zeros(ref.size - R)])
    x = 1.0 + (LG[ref, 0] + delta)                                                 # x - c_0, c_0 = 1

    # v = sum_a alpha_a g_reg(n - nd_a) + E_ref(n) c, one inverse real FFT of
    # its Fourier coefficients alpha e^(-2 pi i k nd / N) / (x - c_k) (two real
    # GEMMs) and, at its level, the mode amplitudes; then one Rayleigh-Ritz
    # step per interval or level (roots next to a level join it), and the
    # weights v_j(n) v_j(n0).
    mode = np.sqrt(N / dims)                                       # a level's mode amplitudes in irfft terms
    W, minus_sin_nd, cut = np.empty((ref.size, N)), -sin_nd, rows * (K + 1)
    for b, inv in inverse_gaps(ref, delta, rows):
        n = inv.shape[0]
        product = W[b].reshape(-1)[:n * (K + 1)].reshape(n, K + 1)
        coef = buffer[cut:cut + 2 * n * (K + 1)].view(complex).reshape(n, K + 1)
        np.multiply(inv, np.matmul(alpha[b], cos_nd, out=product), out=coef.real)
        np.multiply(inv, np.matmul(alpha[b], minus_sin_nd, out=product), out=coef.imag)
        own = (np.arange(n), ref[b])
        coef.real[own], coef.imag[own] = mode[ref[b]] * c[b, 0], -mode[ref[b]] * c[b, 1]
        np.fft.irfft(coef, N, out=W[b])
    del buffer, LG                                       # before Rayleigh-Ritz's blocks
    near_level = np.abs(delta[:R]) < CLUSTER_TOL * (2.0 * np.pi / N) ** 2
    group = K + 2 + ref
    group[:R] = np.where(near_level, group[:R], iv)
    _rayleigh_ritz(W, x, group, nd, s)
    W *= W[:, n0, None].copy()
    return DefectSystem(spec, tuple(defects), x, W)
