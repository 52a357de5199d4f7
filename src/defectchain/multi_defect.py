"""Any number of on-site defects through the free ring Green function.

With x = -E / 2 gamma, levels c_k = cos(2 pi k / N), s_a = q_a / 2 gamma and
g(d; x) = (1/N) sum_k cos(2 pi k d / N) / (x - c_k), which is
-cos((N/2 - d) theta) / (sin(theta) sin(N theta / 2)) at x = cos theta,
x off the levels is an eigenvalue iff F(x) = g_D(x) - S^-1 (g on the defect
sites) is singular.  dg/dx <= 0, so F's sorted eigenvalues fall between
levels, and a level whose modes have rank r on the defect sites sends r of
them from -inf to +inf: every root has a known branch in a known interval,
found by bisection on the branch's sign (after Bunch, Nielsen & Sorensen
1978 and Gu & Eisenstat 1994) in offsets from the nearest level.  A level
keeps its modes that vanish on every defect, and is a root where g_D's
regular part there, compressed onto the null space of its pole, is singular
with S^-1.  Eigenvectors v(n) = sum_a g(n - nd_a; x) alpha_a are formed with
that level's term split off; P_n(t) = |sum_j e^(2 i gamma x_j t) v_j(n) v_j(n0)|^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DuplicateDefectSite, NonSimplePole, NotConverged, PoleCountMismatch
from .homogeneous import green_profile, time_blocks
from .lattice import LatticeSpec, periodic_distances, site_index
from .single_defect import DefectSpec, _check_normalized, eigen_amplitudes
from .spectral import _cos_sin, _gaps_theta, _green_theta, ring_green

RANK_TOL = 1e-8        # rank cut for level modes on the defect sites, relative to sqrt(2/N)
ZERO_TOL = 300 * np.finfo(float).eps        # compressed secular eigenvalue taken as zero,
AMBIGUOUS_TOL = 1000 * np.finfo(float).eps  # and up to here ambiguous, per unit of `noise`
MERGE_TOL = 1e-13      # roots this close, relative to their bracket, share null vectors
NEAR = 1e-2            # finite-branch roots this close to a level (in pi / N) are refined
CLUSTER_TOL = 1e-1     # roots this close to their level, in (2 pi / N)^2, join its Rayleigh-Ritz group


def _regular_green(gaps, ref, N):
    """g(d; x) for d = 0..N-1 without the term of level `ref`, from x - c_k."""
    w = np.divide(1.0, gaps, out=np.zeros_like(gaps), where=np.arange(gaps.shape[-1]) != ref)
    return np.fft.irfft(w, N)


def _level_modes(k, n, N):
    """Orthonormal cosine and sine mode of level k at sites n, shape (..., 2)."""
    c, s = _cos_sin(2 * np.arange(N), N)
    single = (k == 0) | (2 * k == N)
    return np.stack([np.sqrt(np.where(single, 1.0, 2.0) / N) * c[(k * n) % N],
                     np.where(single, 0.0, np.sqrt(2.0 / N)) * s[(k * n) % N]], axis=-1)


def _bisect_branch(secular, m, pos_lo, hi):
    """Roots u in (0, hi) of eigenvalue m (1-based, ascending) of secular(idx, u),
    whose sign as u -> 0 is pos_lo: element-wise bisection to the last bit."""
    lo, hi, active = np.zeros_like(hi), hi.copy(), np.arange(hi.size)
    for _ in range(200):
        mid = 0.5 * (lo[active] + hi[active])
        run = (lo[active] < mid) & (mid < hi[active])
        active, mid = active[run], mid[run]
        if not active.size:
            break
        up = (np.linalg.eigvalsh(secular(active, mid))[np.arange(active.size), m[active] - 1] > 0.0
              ) == pos_lo[active]
        lo[active[up]], hi[active[~up]] = mid[up], mid[~up]
    return 0.5 * (lo + hi)


def _congruent(A, U, sv, r, delta):
    """T = S U^T F U S and S for F = U diag(sv^2, 0) U^T / delta + A (delta =
    x - c_ref, A the regular part), S = min(sqrt|delta| / sv, 1) on the r pole
    columns: same inertia as F (Sylvester), no 1/delta next to the level."""
    P, M = A.shape[:2]
    sv2, pole = np.zeros((P, M)), np.arange(M) < r[:, None]
    sv2[:, :sv.shape[1]] = sv ** 2
    S = np.where(pole, np.minimum(np.sqrt(np.abs(delta[:, None]) / np.where(pole, sv2, 1.0)), 1.0), 1.0)
    T = S[:, :, None] * (U.swapaxes(1, 2) @ A @ U) * S[:, None, :]
    T[:, np.arange(M), np.arange(M)] += np.where(pole, S * S * sv2 / delta[:, None], 0.0)
    return T, S


def _rayleigh_ritz(vec, x, group, nd, s):
    """Normalize the eigenvectors in place and replace each group of several
    by its Rayleigh-Ritz pairs for H = C + S (x units)."""
    vec /= np.sqrt(np.einsum("jn,jn->j", vec, vec))[:, None]
    order = np.argsort(group, kind="stable")
    _, start, size = np.unique(group[order], return_index=True, return_counts=True)
    for c in np.unique(size[size > 1]):
        members = order[start[size == c][:, None] + np.arange(c)]
        for b in time_blocks(members.shape[0], 3 * c * vec.shape[1]):
            V = vec[members[b]]
            HV = 0.5 * (np.roll(V, 1, axis=-1) + np.roll(V, -1, axis=-1))
            HV[..., nd] += s * V[..., nd]
            Li = np.linalg.inv(np.linalg.cholesky(V @ V.swapaxes(1, 2)))
            x[members[b]], Y = np.linalg.eigh(Li @ (V @ HV.swapaxes(1, 2)) @ Li.swapaxes(1, 2))
            vec[members[b]] = (Li.swapaxes(1, 2) @ Y).swapaxes(1, 2) @ V


@dataclass(frozen=True)
class MultiDefectSystem:
    """A ring with M defects in spectral form: all N levels x_j (x = -E / 2
    gamma) and the weight rows v_j(n) v_j(n0) of their eigenvectors."""

    spec: LatticeSpec
    defects: tuple[DefectSpec, ...]
    x: np.ndarray
    weights: np.ndarray


def build_two_defect_system(defects: Sequence[DefectSpec], spec: LatticeSpec) -> MultiDefectSystem:
    """Eigen-decomposition of the ring with any number of defects (zero strengths
    drop out); raises DuplicateDefectSite, NonSimplePole (a level ambiguously a
    root) or PoleCountMismatch.  F is used as D F D, D_a = (|g(0)| + 1/|s_a|)^-1/2:
    the same inertia, and O(1) entries for any strengths."""
    N, gamma, n0 = spec.N, spec.gamma, spec.n0
    sites = [site_index(d.nd, N) for d in defects]
    if len(set(sites)) != len(sites):
        raise DuplicateDefectSite(f"defect sites {sites} are not distinct")
    nd = np.array([n for n, d in zip(sites, defects) if d.q != 0.0], dtype=int)
    s = np.array([d.q / (2.0 * gamma) for d in defects if d.q != 0.0])
    M, K, k = nd.size, N // 2, np.arange(N // 2 + 1)
    diff = (nd[:, None] - nd[None, :]) % N
    uniq, inv = np.unique(np.minimum(diff, N - diff), return_inverse=True)
    weights = lambda g0: 1.0 / np.sqrt(np.abs(g0)[..., None] + 1.0 / np.abs(s))
    scaled = lambda g, D: D[:, :, None] * g * D[:, None, :] - (D * D / s)[:, :, None] * np.eye(M)
    secular = lambda g: scaled(g[:, inv.reshape(-1)].reshape(-1, M, M), weights(g[:, 0]))

    # Level modes on the defect sites V: rank r, invisible modes (rows r: of
    # Vh) and pseudo-inverse; the regular part G of g at each level.
    V = _level_modes(k[:, None], nd[None, :], N)
    Uv, sv, Vh = np.linalg.svd(V)
    r, ks = np.sum(sv > RANK_TOL * np.sqrt(2.0 / N), axis=1), sv.shape[1]
    dims = np.where((k == 0) | (2 * k == N), 1, 2)
    inv_sv = np.where(np.arange(ks) < r[:, None], 1.0 / np.where(sv > 0, sv, 1.0), 0.0)
    pinv = np.einsum("kib,ki,kai->kba", Vh[:, :ks], inv_sv, Uv[:, :, :ks])
    LG = _gaps_theta(2 * k[:, None], 0.0, N)                            # c_k - c_k'
    G = _regular_green(LG, k[:, None], N)

    def congruent_at(g, gaps, lv):
        """T, S, U (SVD of D V) and D at points with regular part g and gaps."""
        Dx = weights(g[:, 0])
        Ux, svx, _ = np.linalg.svd(Dx[:, :, None] * V[lv])
        return _congruent(scaled(g[:, diff], Dx), Ux, svx, r[lv], gaps[np.arange(lv.size), lv]) + (Ux, Dx)

    # Signs of the compressed regular part at each level, and the roots on it.
    D = weights(G[:, 0])
    U, A = np.linalg.svd(D[:, :, None] * V)[0], scaled(G[:, diff], D)
    noise = (np.abs(A).max(axis=(1, 2), initial=0.0)     # rounding scale of the compressed values
             + (D * D).max(axis=1, initial=0.0) * np.abs(1.0 / np.where(LG != 0, LG, np.inf)).sum(axis=1))
    (neg, zero), lev_z, alpha_z = np.zeros((2, K + 1), int), np.zeros(0, int), np.zeros((0, M))
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
        lev_z, alpha_z = np.append(lev_z, sel[li]), np.concatenate(
            [alpha_z, D[sel[li]] * (U0[li] @ Y[li, :, col][..., None])[..., 0]])

    # Root branches per interval from the branch signs at its two ends:
    # theta in (theta_i, theta_i+1) for i < K, then x > 1, then the bottom.
    n_pos = int(np.sum(s > 0))
    lo_m = np.concatenate([neg[1:] + zero[1:], [neg[0] + zero[0], n_pos]])
    counts = np.concatenate([r[:-1] + neg[:-1], [n_pos, r[K] + neg[K]]]) - lo_m
    if np.any(counts < 0):
        raise PoleCountMismatch(f"negative root count in an interval: {counts[counts < 0]}")
    iv = np.repeat(np.arange(counts.size), counts)
    m = lo_m[iv] + np.arange(iv.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1

    # In band the midpoint sign picks the half interval, bisected in offsets
    # from its level; outside, roots are bisected in their offset from level 0
    # or K, which for an odd ring also covers the stretch between c_K and -1.
    band, outer = np.nonzero(iv < K)[0], np.nonzero(iv >= K)[0]
    g_mid = _green_theta(uniq[None, :], 2 * iv[band, None] + 1, 0.0, N)
    pos_mid = (np.linalg.eigvalsh(secular(g_mid))[np.arange(band.size), m[band] - 1] > 0
               if band.size else band > 0)
    j0, sgn = np.where(pos_mid, 2 * iv[band], 2 * iv[band] + 2), np.where(pos_mid, 1.0, -1.0)
    side, lv_out = np.where(iv[outer] == K, 1.0, -1.0), np.where(iv[outer] == K, 0, K)

    # Families theta = pi j0 / N + sgn u and x = c_ref + side u: closed-form g,
    # gaps, level, merge key, below the level, sign as u -> 0, bracket.  Roots
    # on a finite branch next to their level are bisected again on the exact
    # congruent form (the closed form holds them to eps |pole| / delta), and
    # (nearly) multiple roots are put on one point, for one factorization.
    families = [
        (band, lambda d, i, u: _green_theta(d, j0[i], sgn[i] * u, N),
         lambda i, u: _gaps_theta(j0[i], sgn[i] * u, N), j0 // 2, 2 * j0 + (sgn > 0), sgn > 0,
         ~pos_mid, np.pi / N),
        (outer, None, lambda i, u: side[i] * u + LG[lv_out[i[:, 0]]], lv_out, side, side < 0, side > 0,
         2.0 + np.abs(s).max(initial=0.0))]
    roots, ref, gaps, m_root = [], [], [], []
    for idx, green, gaps_at, lv, key, below, pos, hi in families:
        mf, u, near = m[idx], np.zeros(idx.size), np.arange(idx.size)
        if green is not None:
            u = _bisect_branch(lambda i, v, g=green: secular(g(uniq, i[:, None], v[:, None])),
                               mf, pos, np.full(idx.size, hi))
            near = np.flatnonzero(~np.where(below, mf <= r[lv], mf > M - r[lv]) & (u < NEAR * hi))
        exact = lambda i, v, w=near, g=gaps_at, lv=lv: congruent_at(
            _regular_green(gp := g(w[i, None], v[:, None]), lv[w[i], None], N), gp, lv[w[i]])[0]
        u[near] = _bisect_branch(exact, mf[near], pos[near], np.full(near.size, hi))
        same = np.append(False, (np.diff(key) == 0) & (np.abs(np.diff(u)) <= MERGE_TOL * hi))
        u = u[np.maximum.accumulate(np.where(same, 0, np.arange(u.size)))]
        roots.append(idx), ref.append(lv), m_root.append(mf)
        gaps.append(gaps_at(np.arange(idx.size)[:, None], u[:, None]))
    inv_lev, inv_col = np.nonzero((np.arange(2) >= r[:, None]) & (np.arange(2) < dims[:, None]))
    roots, m_root = np.concatenate(roots), np.concatenate(m_root)
    R, J, ref = roots.size, roots.size + lev_z.size, np.concatenate(ref + [lev_z])
    gaps = np.concatenate(gaps + [LG[lev_z]])
    x = np.concatenate([1.0 + gaps[:, 0], 1.0 + LG[inv_lev, 0]])              # x - c_0, c_0 = 1

    # v = sum_a alpha_a g_reg(n - nd_a) + E_ref(n) c with c = -pinv(V) (g_reg,D
    # - S^-1) alpha, the level's amplitude; then the invisible modes, one
    # Rayleigh-Ritz step per interval or level (roots next to a level join
    # it), and the weights v_j(n) v_j(n0) in place.
    alpha = np.concatenate([np.zeros((R, M)), alpha_z])
    W = np.empty((N, N))
    for b in time_blocks(J, N * (M + 3)):
        g = _regular_green(gaps[b], ref[b, None], N)
        own = b.start + np.flatnonzero(np.arange(J)[b] < R)
        T, S, Ux, Dx = congruent_at(g[own - b.start], gaps[own], ref[own])
        z = S * np.linalg.eigh(T)[1][np.arange(own.size), :, m_root[own] - 1]
        alpha[own] = Dx * (Ux @ z[..., None])[..., 0]
        c = -np.einsum("jbc,jcd,jd->jb", pinv[ref[b]], g[:, diff] - np.diag(1.0 / s), alpha[b])
        W[:J][b] = (np.einsum("jan,ja->jn", g[:, (np.arange(N) - nd[:, None]) % N], alpha[b])
                    + np.einsum("jnb,jb->jn", _level_modes(ref[b, None], np.arange(N), N), c))
    for b in time_blocks(inv_lev.size, 2 * N):
        W[J:][b] = np.einsum("jnb,jb->jn", _level_modes(inv_lev[b, None], np.arange(N), N),
                             Vh[inv_lev[b], inv_col[b]])
    near_level = np.abs(gaps[np.arange(R), ref[:R]]) < CLUSTER_TOL * (2.0 * np.pi / N) ** 2
    group = K + 2 + np.append(ref, inv_lev)
    group[:R] = np.where(near_level, group[:R], iv[roots])
    _rayleigh_ritz(W, x, group, nd, s)
    W *= W[:, n0, None].copy()
    return MultiDefectSystem(spec, tuple(defects), x, W)


def two_defect_occupation_series(system: MultiDefectSystem, times) -> np.ndarray:
    """P_n(t) rows, shape (len(times), N); NormalizationDrift if a row drifts."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    psi = eigen_amplitudes(system.x, system.weights, system.spec.gamma, times)
    P = psi.real ** 2 + psi.imag ** 2
    _check_normalized(P.sum(axis=1), "multi-defect probability", times)
    return P


def two_defect_occupation(system: MultiDefectSystem, t: float) -> np.ndarray:
    """P_n(t) with several defects at one time."""
    return two_defect_occupation_series(system, [t])[0]


def bromwich_occupation(defects: Sequence[DefectSpec], spec: LatticeSpec, t: float) -> np.ndarray:
    """Referee: the defect correction psi - G (decaying like 1/s^2) inverted by
    the trapezoid rule on Re s = gamma / 2, |Im s| <= 600 gamma + 20 max|q|, for
    any defect count; NotConverged on a non-finite profile."""
    N, gamma = spec.N, spec.gamma
    omega_max = 600.0 * gamma + 20.0 * max(abs(d.q) for d in defects)
    omega = np.linspace(-omega_max, omega_max, 2 * int(omega_max / min(0.05, 0.5 / max(t, 1e-9)) / 2) + 1)
    s = 0.5 * gamma + 1j * omega
    q, ring = np.array([d.q for d in defects]), np.array([periodic_distances(N, d.nd) for d in defects])
    G = ring_green(np.arange(N // 2 + 1), s[:, None] / (2j * gamma), N) / (2j * gamma)
    psi_d = np.linalg.solve(np.eye(q.size) - 1j * q * G[:, ring[:, [site_index(d.nd, N) for d in defects]]],
                            G[:, ring[:, spec.n0], None])[..., 0]
    coef = np.exp(s * t)[:, None] * 1j * q * psi_d / (2.0 * np.pi)
    psi = green_profile(spec, t) + sum(np.trapezoid(coef[:, a, None] * G, omega, axis=0)[ring[a]]
                                       for a in range(q.size))
    P = psi.real ** 2 + psi.imag ** 2
    if not np.all(np.isfinite(P)):
        raise NotConverged(f"Bromwich inversion gave a non-finite profile at t={t}")
    return P
