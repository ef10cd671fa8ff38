"""Reference values computed apart from domlab.

Nothing here imports domlab.  Norms are read from the specs that domlab
writes into ``report.json`` and evaluated with the formulas below, so a
fault in ``domlab.geometry`` cannot hide behind the check that should
find it.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from scipy.stats import levy_stable

# A Monte Carlo count k out of n passes when |k - n p| stays within
# Z_SCORE binomial standard errors plus Z_SCORE^2 / 3 counts.  By
# Bernstein's inequality a correct estimator fails one cell with
# probability below 2 exp(-Z_SCORE^2 / 2) ~ 3e-8, so even the few hundred
# cells of a set of runs stay far from a false alarm.
Z_SCORE = 6.0

# Exact values agree when they lie within this of each other (absolute,
# on probabilities and means of order one).
EXACT_TOL = 1e-9

# Atoms whose norm lies within this of a threshold may be rounded either
# way by two correct evaluators; the reference brackets them.
EDGE = 1e-9


# ---------------------------------------------------------------------------
# norms from their specs


def _lp(a, p):
    a = np.abs(a)
    if p == "inf" or p is None:
        return a.max(axis=-1)
    p = float(p)
    if p == 1.0:
        return a.sum(axis=-1)
    return (a ** p).sum(axis=-1) ** (1.0 / p)


def norm_values(spec: dict, x) -> np.ndarray:
    """The norm of every row of x, from a domlab norm spec."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    v = spec["variant"]
    if v == "lp":
        return _lp(x, spec["p"])
    if v == "weighted_lp":
        return _lp(x * np.asarray(spec["weights"], dtype=float), spec["p"])
    if v == "ellipsoid":
        a = np.asarray(spec["matrix"], dtype=float)
        return np.sqrt(np.maximum(((x @ a) * x).sum(axis=-1), 0.0))
    if v == "polytope_gauge":
        u = np.asarray(spec["directions"], dtype=float)
        return np.abs(x @ u.T).max(axis=-1)
    if v == "scaled":
        return float(spec["factor"]) * norm_values(spec["inner"], x)
    raise ValueError(f"unknown norm variant {v!r}")


def _kink_directions(spec: dict, d: int):
    """Rows D with the norm a max of |<D_j, x>| pieces, where it has kinks."""
    v = spec["variant"]
    if v == "scaled":
        return _kink_directions(spec["inner"], d)
    if v == "polytope_gauge":
        return np.asarray(spec["directions"], dtype=float)
    if v in ("lp", "weighted_lp") and spec["p"] in ("inf", None):
        w = np.asarray(spec.get("weights", [1.0] * d), dtype=float)
        return np.diag(w)
    return np.zeros((0, d))


# ---------------------------------------------------------------------------
# (a) centred Gaussians in R^2


def gaussian_tail(spec: dict, cov, t: float, width: float = 0.004,
                  nodes: int = 8) -> float:
    """P(N(X) > t) for X ~ N(0, cov) in R^2, by the polar formula

        P(N(X) > t) = (2 pi sqrt(det cov))^-1
                      * int_0^{2 pi} exp(-t^2 q / (2 N(u)^2)) / q  dtheta,

    q = u^T cov^-1 u, u = (cos theta, sin theta).  The integral is split
    at the axes and at every angle where two pieces of a max-type norm can
    cross, then summed by Gauss-Legendre on pieces at most ``width`` wide.
    """
    cov = np.asarray(cov, dtype=float)
    inv = np.linalg.inv(cov)
    cuts = [k * math.pi / 2.0 for k in range(5)]
    dirs = _kink_directions(spec, 2)
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            for w in (dirs[i] - dirs[j], dirs[i] + dirs[j]):
                if np.hypot(*w) > 0:
                    base = math.atan2(w[1], w[0]) + math.pi / 2.0
                    cuts.extend((base + k * math.pi) % (2.0 * math.pi)
                                for k in range(2))
    cuts = np.unique(np.clip(cuts, 0.0, 2.0 * math.pi))
    edges = [cuts[0]]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pieces = max(1, int(math.ceil((hi - lo) / width)))
        edges.extend(np.linspace(lo, hi, pieces + 1)[1:])
    edges = np.asarray(edges)
    lo, hi = edges[:-1], edges[1:]
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    theta = ((hi - lo)[:, None] * (gx[None, :] + 1.0) / 2.0 + lo[:, None]).ravel()
    weight = ((hi - lo)[:, None] * gw[None, :] / 2.0).ravel()
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    q = ((u @ inv) * u).sum(axis=1)
    n = norm_values(spec, u)
    f = np.exp(-t * t * q / (2.0 * n * n)) / q
    return float(weight @ f / (2.0 * math.pi * math.sqrt(np.linalg.det(cov))))


# ---------------------------------------------------------------------------
# (b) sums of vectors uniform on (+-1, +-1)


def rademacher_square_sum(n: int):
    """Atoms of R_1 + ... + R_n, R_i uniform on (+-1, +-1): an (n+1)^2 lattice."""
    k = np.arange(n + 1)
    coord = 2.0 * k - n
    pk = np.array([math.comb(n, int(i)) for i in k], dtype=float) / 2.0 ** n
    xs, ys = np.meshgrid(coord, coord, indexing="ij")
    probs = np.outer(pk, pk).ravel()
    return np.stack([xs.ravel(), ys.ravel()], axis=1), probs


def exact_tail_bracket(values, probs, t: float):
    """(P(N > t + EDGE), P(N > t - EDGE)): an exact tail up to rounding at t."""
    values = np.asarray(values)
    return (float(probs[values > t + EDGE].sum()),
            float(probs[values > t - EDGE].sum()))


def within_bracket(value: float, bracket) -> bool:
    lo, hi = bracket
    return lo - EXACT_TOL <= value <= hi + EXACT_TOL


# ---------------------------------------------------------------------------
# (c) symmetric stable tails


def stable_two_sided_tail(index: float, t: float) -> float:
    """P(|X| > t) for X standard symmetric stable (beta = 0)."""
    return 2.0 * float(levy_stable.sf(t, index, 0.0))


# ---------------------------------------------------------------------------
# (d) Pareto sums


def pareto_max_tail(exponent: float, n: int, t: float) -> float:
    """P(max_i |X_i| > t) for n iid X with P(|X| > t) = min(1, t^-exponent)."""
    single = 1.0 if t <= 1.0 else t ** (-exponent)
    return 1.0 - (1.0 - single) ** n


def levy_bracket(exponent: float, n: int, t: float):
    """1/2 P(max|X_i| > t) <= P(|S| > t) <= P(max|X_i| > t / n)."""
    return (0.5 * pareto_max_tail(exponent, n, t),
            pareto_max_tail(exponent, n, t / n))


def wb_tensorized(C: float, delta: float, theta: float):
    """C' = 12 9^delta C and theta' = min(theta / 2, 1 / (96 C 9^delta))."""
    nine = 9.0 ** delta
    return 12.0 * nine * C, min(theta / 2.0, 1.0 / (96.0 * C * nine))


def count_within(k: float, n: int, lo: float, hi: float | None = None) -> bool:
    """k of n lies within Z_SCORE standard errors of a probability in [lo, hi]."""
    hi = lo if hi is None else hi

    def slack(p):
        return Z_SCORE * math.sqrt(n * p * (1.0 - p)) + Z_SCORE ** 2 / 3.0

    return n * lo - slack(lo) <= k <= n * hi + slack(hi)


# ---------------------------------------------------------------------------
# (e) random signs, by brute force over all 2^n sign vectors


def sign_norms(spec: dict, vectors, block: int = 1 << 15) -> np.ndarray:
    """||sum_i eps_i v_i|| for every eps in {-1, 1}^n, in index order."""
    v = np.asarray(vectors, dtype=float)
    n = v.shape[0]
    out = np.empty(1 << n)
    shifts = np.arange(n)
    for start in range(0, 1 << n, block):
        idx = np.arange(start, min(start + block, 1 << n), dtype=np.int64)
        eps = ((idx[:, None] >> shifts) & 1) * 2.0 - 1.0
        out[start:start + len(idx)] = norm_values(spec, eps @ v)
    return out


def sign_tail(norms: np.ndarray, t: float):
    ones = np.ones(len(norms)) / len(norms)
    return exact_tail_bracket(norms, ones, t)


# ---------------------------------------------------------------------------
# the proxy functional for four-atom components


def four_atom_sum_tables(pairs, weights, spec: dict):
    """Per choice pattern: probability and the norms of all signed sums.

    Component i is +-v_i with total mass w_i and +-u_i with mass 1 - w_i.
    A global sign flip of an outcome does not change sum_i eps_i x_i in
    law, so the law of the sum and the inner sign mean of the proxy depend
    only on which pair each component chose.
    """
    n = len(pairs)
    probs, tables = [], []
    for choice in product((0, 1), repeat=n):
        p = 1.0
        vecs = []
        for i, c in enumerate(choice):
            p *= weights[i] if c == 0 else 1.0 - weights[i]
            vecs.append(pairs[i][c])
        probs.append(p)
        tables.append(sign_norms(spec, np.asarray(vecs)))
    return np.asarray(probs), np.asarray(tables)


def four_atom_tail(probs, tables, t: float):
    lo = float(probs @ (tables > t + EDGE).mean(axis=1))
    hi = float(probs @ (tables > t - EDGE).mean(axis=1))
    return lo, hi


def four_atom_proxy(probs, tables) -> float:
    inner = np.maximum(tables - 1.0, 0.0).mean(axis=1)
    return float(probs @ np.minimum(inner, 1.0))
