"""Independent references and property checks for the benchmark.

Nothing here imports defectchain.  Each reference is a dense eigen-
decomposition of a ring Hamiltonian built in this file, so a fault in the
program's own oracle cannot hide a fault in the path it referees.

Conventions match the program: H = -gamma (ring hopping) - q |nd><nd|,
the particle starts on site n0, and distances are ring distances.
"""

from __future__ import annotations

import numpy as np

# Per-site probability agreement with the dense reference; the repository's
# own acceptance criteria use the same figure for the oracle comparisons.
PROB_ATOL = 1e-8
# A probability vector must sum to 1 to this accuracy and be no more
# negative than rounding allows.
NORM_ATOL = 1e-10
NEG_ATOL = 1e-12
# Levels closer than DEG_RTOL * gamma count as one degenerate level in a
# long-time average.  The scale is the band width, not max|E|: eigh's
# rounding on the free ring is ~1e-15 gamma, while genuinely distinct
# levels of a defected ring are far more than 1e-10 gamma apart.
DEG_RTOL = 1e-11


def ring_hamiltonian(N: int, gamma: float, defects=()) -> np.ndarray:
    H = np.zeros((N, N))
    i = np.arange(N)
    H[i, (i + 1) % N] = -gamma
    H[(i + 1) % N, i] = -gamma
    for nd, q in defects:
        H[nd, nd] -= q
    return H


def distances(N: int, n0: int) -> np.ndarray:
    d = (np.arange(N) - n0) % N
    return np.minimum(d, N - d).astype(float)


class Dense:
    """Eigenpairs of one real symmetric Hamiltonian."""

    def __init__(self, H: np.ndarray, gamma: float):
        self.E, self.V = np.linalg.eigh(H)
        self.gamma = gamma

    def occupation(self, n0: int, times) -> np.ndarray:
        """Exact |psi_n(t)|^2, shape (len(times), N)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        c = self.V[n0, :]
        psi = self.V @ (np.exp(-1j * np.outer(self.E, times)) * c[:, None])
        return (psi.real ** 2 + psi.imag ** 2).T

    def steady(self, n0: int) -> np.ndarray:
        """Long-time average of the occupation: only pairs of levels inside
        one degenerate class survive, Pbar_n = sum_C (sum_{a in C} v_a(n) v_a(n0))^2."""
        tol = DEG_RTOL * self.gamma
        gaps = np.diff(self.E)
        if np.any((gaps > tol) & (gaps < 10.0 * tol)):
            raise ValueError("level gap inside the ambiguous band; reference undefined")
        cuts = np.nonzero(gaps > tol)[0] + 1
        proj = self.V * self.V[n0, :][None, :]
        out = np.zeros(self.V.shape[0])
        for block in np.split(np.arange(self.E.size), cuts):
            b = proj[:, block].sum(axis=1)
            out += b * b
        return out


def single_defect(N, gamma, nd, q) -> Dense:
    return Dense(ring_hamiltonian(N, gamma, [(nd, q)]), gamma)


def infinite_q_steady(N: int, gamma: float, n0: int, nd: int) -> np.ndarray:
    """Steady profile as q -> infinity: the defect site decouples, leaving
    an open chain of N - 1 sites; the particle never reaches nd."""
    if nd == n0:
        out = np.zeros(N)
        out[n0] = 1.0
        return out
    keep = np.delete(np.arange(N), nd)
    H = np.delete(np.delete(ring_hamiltonian(N, gamma), nd, 0), nd, 1)
    prof = Dense(H, gamma).steady(int(np.nonzero(keep == n0)[0][0]))
    return np.insert(prof, nd, 0.0)


def infinite_q_closed_form(N: int, n0: int, nd: int) -> np.ndarray:
    """The paper's limit profile: 1/N, plus 1/(2N) at n0 and at the mirror
    site 2 nd - n0, and 0 at nd."""
    out = np.full(N, 1.0 / N)
    if nd == n0:
        out[:] = 0.0
        out[n0] = 1.0
        return out
    out[n0] += 0.5 / N
    out[(2 * nd - n0) % N] += 0.5 / N
    out[nd] = 0.0
    return out


def tstar_deviation(dense: Dense, n0: int, t: float) -> float:
    """|Delta_2(t) - 2 gamma^2 t^2| / (2 gamma^2 t^2) on the free ring."""
    N = dense.V.shape[0]
    d2 = float(dense.occupation(n0, [t])[0] @ distances(N, n0) ** 2)
    ball = 2.0 * dense.gamma ** 2 * t * t
    return abs(d2 - ball) / ball


class Checks:
    """Collects check failures; a run is correct when none were recorded."""

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0
        self.worst = (0.0, "")      # largest error / allowance seen, and where

    def _fail(self, what, detail):
        self.failures.append(f"{what}: {detail}")

    def close(self, what, got, want, atol):
        """Elementwise |got - want| <= atol; NaN never passes."""
        self.count += 1
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self._fail(what, f"shape {got.shape} != {want.shape}")
            return
        err = np.abs(got - want)
        ratio = float(np.max(err / np.broadcast_to(atol, err.shape), initial=0.0))
        if ratio > self.worst[0] or np.isnan(ratio):
            self.worst = (ratio, what)
        if not np.all(err <= atol):
            self._fail(what, f"max error {np.max(err):.3e} > {np.max(atol):.3e}")

    def moments(self, what, got, P_ref, N, n0, p):
        """Moments against sum_n [n - n0]^p P_ref(n); the allowance is the
        per-site tolerance carried through the same sum."""
        dp = distances(N, n0) ** p
        self.close(what, got, P_ref @ dp, PROB_ATOL * dp.sum())

    def profiles(self, what, P):
        """Each row sums to 1 and has no entry below -NEG_ATOL."""
        self.count += 1
        P = np.atleast_2d(np.asarray(P, dtype=float))
        if not np.all(np.isfinite(P)):
            self._fail(what, "non-finite probability")
            return
        worst = float(np.max(np.abs(P.sum(axis=1) - 1.0)))
        if worst > NORM_ATOL:
            self._fail(what, f"sum differs from 1 by {worst:.3e}")
        if P.min() < -NEG_ATOL:
            self._fail(what, f"negative probability {P.min():.3e}")

    def true(self, what, ok, detail=""):
        self.count += 1
        if not ok:
            self._fail(what, detail or "property does not hold")

    def ballistic(self, what, times, msd, gamma, N):
        """Free-chain MSD is 2 gamma^2 t^2 until the front, moving at 2 gamma,
        has covered a quarter ring (t <= N / (8 gamma)); the wrapped tail is
        then far below the tolerance."""
        times = np.asarray(times, dtype=float)
        short = (times > 0.0) & (times <= N / (8.0 * gamma))
        self.true(f"{what} has short times", bool(np.any(short)))
        ball = 2.0 * gamma ** 2 * times[short] ** 2
        self.close(what, np.asarray(msd)[short], ball, 1e-8 * ball)

    def linear(self, what, xs, ys, min_r2=0.999):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = ys - (slope * xs + intercept)
        r2 = 1.0 - float(resid @ resid) / float(((ys - ys.mean()) ** 2).sum())
        self.true(what, slope > 0.0 and r2 >= min_r2, f"slope {slope:.4g}, r^2 {r2:.6f}")


def self_test() -> list[str]:
    """Check the references against the paper's closed forms (no timing)."""
    c = Checks()
    for N in (8, 9, 50, 51):
        n0 = 3
        P = Dense(ring_hamiltonian(N, 1.0), 1.0).steady(n0)
        want = np.full(N, 1.0 / N - (2.0 if N % 2 == 0 else 1.0) / N ** 2)
        want[n0] += 1.0 / N
        if N % 2 == 0:
            want[(n0 + N // 2) % N] += 1.0 / N
        c.close(f"free steady profile N={N}", P, want, 1e-13)
        d2 = float(P @ distances(N, n0) ** 2)
        m2 = ((N * N + 2.0) / 12.0 + N / 12.0 - 1.0 / (3.0 * N) if N % 2 == 0
              else (N - 1) ** 2 * (N + 1) / (12.0 * N))
        c.close(f"free steady MSD N={N}", d2, m2, 1e-11 * m2)
    t = np.linspace(0.0, 5.0, 11)
    P3 = Dense(ring_hamiltonian(3, 1.0), 1.0).occupation(0, t)[:, 0]
    c.close("N=3 return probability (5 + 4 cos 3t)/9", P3, (5.0 + 4.0 * np.cos(3.0 * t)) / 9.0, 1e-13)
    dense = Dense(ring_hamiltonian(64, 1.5), 1.5)
    ts = np.array([1e-3, 1e-2, 0.1, 2.0])
    msd = dense.occupation(5, ts) @ distances(64, 5) ** 2
    c.ballistic("free MSD 2 gamma^2 t^2", ts, msd, 1.5, 64)
    for N, n0, nd in ((50, 22, 25), (51, 2, 4), (40, 0, 20), (30, 7, 7)):
        c.close(f"infinite-q profile N={N} n0={n0} nd={nd}",
                infinite_q_steady(N, 1.0, n0, nd), infinite_q_closed_form(N, n0, nd), 1e-12)
    big = single_defect(50, 1.0, 25, 1e7).steady(22)
    c.close("q=1e7 approaches the infinite-q profile", big,
            infinite_q_closed_form(50, 22, 25), 1e-5)
    return c.failures
