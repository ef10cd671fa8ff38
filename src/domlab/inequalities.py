"""Exact verifiers for classical sign/sum inequalities, and the sign tail by
Monte Carlo.

The exact engine enumerates sign patterns.  Because every quantity here
depends on signs only through the norm of a sign-odd sum, the global flip
eps -> -eps leaves it invariant, so enumeration runs over 2^(n-1)
patterns with the first sign pinned to +1.  Every tail and moment comes
from one read-only table of 2^(n-1) norm values (16 MB at the cap), and
the table of the last instance enumerated is kept: the verifiers and the
exact sign tail and mean, called in a row on one instance, share one
enumeration.  At most one table is held, not one per instance, and it is
dropped before the next is built; so a fresh instance, or one asked again
after another, enumerates again.  The sum inequalities convolve the law of
a running state one summand at a time.  sign_tail_mc draws chunk j of
rng.map_chunks on the substream (seed, 0, j), so memory stays one chunk
per thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import ProductLaw, _merge_atoms, _signs, _step_masses, enumerate_sum
from .errors import CapacityError, ParameterError, _check_count, _check_real, _param_rows
from .geometry import norm_family
from .rng import map_chunks, substream
from .stats import DEFAULT_CONFIDENCE, SlackReport, TailEstimate

SIGN_ENUMERATION_CAP = 22  # 2^21 ~ 2.1M half-patterns, 16 MB of float64 norms
_SIGN_BLOCK = 1 << 14  # sign patterns per block of _eps_blocks


@dataclass(frozen=True, eq=False)
class SignInstance:
    """Fixed vectors v_1..v_n together with the norm on R^d used to measure sums.
    Instances compare, and hash, by identity."""

    vectors: np.ndarray  # (n, d)
    norm: object

    def __post_init__(self):
        vectors = _param_rows(self.vectors, "sign instance vectors")
        norm_family((self.norm,), vectors.shape[1])
        object.__setattr__(self, "vectors", vectors)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


def _check_cap(n: int):
    if n > SIGN_ENUMERATION_CAP:
        raise CapacityError(f"{n} summands exceed the sign-enumeration cap "
                            f"{SIGN_ENUMERATION_CAP}")


def _eps_blocks(n: int, max_block: int = _SIGN_BLOCK):
    """Blocks of sign patterns (rows) with the first sign fixed to +1.

    Pattern k has sign 2 * bit_j(k) - 1 in column j + 1.  max_block is a
    power of two, so every block is too: the low-bit columns repeat from
    block to block and the high-bit columns are constant within one.  One
    array is filled per call and rewritten in place: going from block
    b - 1 to b negates only the high columns whose bit of b changed.  The
    caller must use each block before asking for the next, because every
    yield is the same array, overwritten by the next block.
    """
    half = 1 << (n - 1)
    block = min(half, max_block)
    low = block.bit_length() - 1
    eps = np.full((block, n), -1.0)
    eps[:, 0] = 1.0
    for j in range(low):
        # rows [2^j, 2^(j+1)) are rows [0, 2^j) with bit j set
        h = 1 << j
        eps[h:2 * h] = eps[:h]
        eps[h:2 * h, 1 + j] = 1.0
    yield eps
    for b in range(1, half // block):
        # b ^ (b - 1) has exactly the bits that differ from b - 1: the lowest
        # set bit of b and every bit below it.  Negating their transpose in C
        # order runs numpy's inner loop down each column, where a plain
        # multi-column slice loops row by row.  The flip multiplies: numpy
        # 2.4.6's np.negative(column, out=column) leaves every eighth entry
        # unflipped when n = 8.
        high = eps[:, 1 + low:1 + low + (b ^ (b - 1)).bit_length()].T
        np.multiply(high, -1.0, out=high, order="C")
        yield eps


# the one-entry memo of _sign_norms: [(instance, its table)], the pair replaced
# as one tuple, so no reader matches an instance with another instance's table
_last_table = [(None, None)]


def _sign_norms(inst: SignInstance) -> np.ndarray:
    """||sum eps_i v_i|| for each of the 2^(n-1) half-patterns, in block order,
    as a read-only array.  The table of the last instance asked for is kept
    for the next call on that same instance; the old table is dropped before
    a new one is built, so no two tables are ever held at once."""
    held, vals = _last_table[0]
    if held is inst:
        return vals
    _check_cap(inst.n)
    _last_table[0] = (None, None)
    del vals  # the old table goes before the new one is allocated
    vals = np.empty(1 << (inst.n - 1))
    for lo, eps in zip(range(0, len(vals), _SIGN_BLOCK), _eps_blocks(inst.n)):
        vals[lo:lo + len(eps)] = inst.norm.evaluate(eps @ inst.vectors)
    vals.setflags(write=False)
    _last_table[0] = (inst, vals)
    return vals


def _tail(vals: np.ndarray, t: float) -> float:
    return int(np.count_nonzero(vals > t)) / len(vals)


def _mean(vals: np.ndarray, square: bool = False) -> float:
    # one float sum per _eps_blocks block, added in block order; a squared
    # block is a new block-sized array, so the table itself is never written
    acc = 0.0
    for lo in range(0, len(vals), _SIGN_BLOCK):
        block = vals[lo:lo + _SIGN_BLOCK]
        acc += float((block * block if square else block).sum())
    return acc / len(vals)


def sign_tail_exact(inst: SignInstance, t: float) -> float:
    """P_eps(||sum eps_i v_i|| > t), an exact dyadic rational k / 2^n."""
    t = _check_real(t, "threshold")
    return _tail(_sign_norms(inst), t)


def sign_tail_mc(inst: SignInstance, t: float, budget: int, seed: int,
                 confidence: float = DEFAULT_CONFIDENCE) -> TailEstimate:
    """Monte-Carlo estimate of the sign tail with a Clopper-Pearson interval."""
    _check_count(budget, "budget", 1)
    t = _check_real(t, "threshold")

    def count_chunk(j, lo, hi):
        size = (hi - lo) * inst.n  # the signs of integers(0, 2, size=(hi - lo, n)) * 2 - 1
        eps = _signs(substream(seed, 0, j), np.empty(size))
        return int(np.count_nonzero(
            inst.norm.evaluate(eps.reshape(hi - lo, inst.n) @ inst.vectors) > t))
    return TailEstimate.from_counts(sum(map_chunks(count_chunk, budget)), budget, confidence)


def sign_mean_exact(inst: SignInstance) -> float:
    """Exact E_eps ||sum eps_i v_i||."""
    return _mean(_sign_norms(inst))


def signed_mean_over_outcomes(outcomes: np.ndarray, norm) -> np.ndarray:
    """E_eps (||sum eps_i x_i|| - 1)_+ for each outcome tuple.

    outcomes has shape (M, n, d); result has shape (M,).  This is the
    inner integrand of the proxy functional, vectorized over outcomes.
    """
    m, n, d = outcomes.shape
    _check_cap(n)
    half = 1 << (n - 1)
    acc = np.zeros(m)
    # keep block * M * d at most about 2^22 floats, block a power of two
    max_block = 1 << (max(1, (1 << 22) // max(m * d, 1)).bit_length() - 1)
    for eps in _eps_blocks(n, max_block=max_block):
        # column-major sums: the norm reads their transpose without a copy
        sums = np.einsum("bn,mnd->dbm", eps, outcomes, order="C").reshape(d, -1)
        vals = norm.evaluate(sums.T).reshape(len(eps), m)
        acc += np.maximum(vals - 1.0, 0.0).sum(axis=0)
    return acc / half


# ---------------------------------------------------------------------------
# sign-inequality verifiers


def verify_kahane(inst: SignInstance, s: float, t: float) -> SlackReport:
    """P(||S|| > s+t) <= 4 P(||S|| > s) P(||S|| > t) for random signs, exact."""
    s, t = _check_real(s, "level s", "(0, inf)"), _check_real(t, "level t", "(0, inf)")
    vals = _sign_norms(inst)
    lhs = _tail(vals, s + t)
    rhs = 4.0 * _tail(vals, s) * _tail(vals, t)
    return SlackReport.from_exact("kahane", lhs, rhs)


def verify_L1L2(inst: SignInstance) -> SlackReport:
    """E||S||^2 <= 2 (E||S||)^2 for random signs, exact."""
    vals = _sign_norms(inst)
    m1, m2 = _mean(vals), _mean(vals, square=True)
    return SlackReport.from_exact("l1l2", m2, 2.0 * m1 * m1)


def verify_PZ(inst: SignInstance, theta: float) -> SlackReport:
    """P(||S|| > theta E||S||) >= (1-theta)^2 / 2, exact.

    Reported with the guaranteed lower bound on the lhs side so that
    holds <=> lhs <= rhs, matching every other report.
    """
    theta = _check_real(theta, "theta", "(0, 1)")
    vals = _sign_norms(inst)
    tail = _tail(vals, theta * _mean(vals))
    bound = 0.5 * (1.0 - theta) ** 2
    return SlackReport.from_exact("paley_zygmund", bound, tail)


def verify_contraction(vectors, a, b, norm) -> SlackReport:
    """E||sum eps a_i v_i|| <= E||sum eps b_i v_i|| when |a_i| <= |b_i|, exact."""
    vectors = _param_rows(vectors, "contraction vectors")
    a, b = _param_rows([a, b], "contraction coefficients")
    if len(a) != len(vectors):
        raise ParameterError("coefficient/vector length mismatch")
    if np.any(np.abs(a) > np.abs(b)):
        raise ParameterError("contraction requires |a_i| <= |b_i| for all i")
    lhs = sign_mean_exact(SignInstance(a[:, None] * vectors, norm))
    rhs = sign_mean_exact(SignInstance(b[:, None] * vectors, norm))
    return SlackReport.from_exact("contraction", lhs, rhs)


# ---------------------------------------------------------------------------
# sum inequalities for independent symmetric vectors


def _exact_sum_events(law: ProductLaw, norm, s: float, t: float, u: float):
    """Exact probabilities of S* > t, ||S_n|| > t, X* > t, X* > s,
    S* > s+t+u and ||S_n|| > u, the sum of P(||X_j|| > t) over j, and
    q = P(X* <= t), one summand at a time.

    A state is the partial sum S_k followed by the 0/1 flags S* > t,
    S* > s+t+u, X* > t and X* > s; each step pairs every state with every
    atom of the next summand and merges equal states, as enumerate_sum does.
    P(||X_j|| > t) and q = prod_j P(||X_j|| <= t) come from the atoms of
    each X_j alone, so q keeps full relative precision however small it is.
    """
    d = law.dimension
    states, probs, x_tails, q = np.zeros((1, d + 4)), np.ones(1), 0.0, 1.0
    for c in law.components:
        c_vectors, c_probs = enumerate_sum(c)
        xn = norm.evaluate(c_vectors)
        x_tails += float(c_probs[xn > t].sum())
        q *= float(c_probs[xn <= t].sum())
        masses = _step_masses(probs, c_probs)
        sums = (states[:, None, :d] + c_vectors).reshape(len(masses), d)
        sn = norm.evaluate(sums).reshape(len(probs), -1)
        seen = np.stack(np.broadcast_arrays(sn > t, sn > s + t + u, xn > t, xn > s), axis=-1)
        flags = np.maximum(states[:, None, d:], seen).reshape(len(masses), 4)
        states, probs = _merge_atoms(np.hstack([sums, flags]), masses)
    sn = norm.evaluate(states[:, :d])
    sstar_t, sstar_stu, xstar_t, xstar_s = (states[:, d:] > 0.0).T
    events = [float(probs[col].sum())
              for col in (sstar_t, sn > t, xstar_t, xstar_s, sstar_stu, sn > u)]
    return events + [x_tails], q


def verify_sum_inequalities(law: ProductLaw, norm, levels: dict) -> dict:
    """Levy / maximal-summand / Hoffmann-Jorgensen / summand-tail checks, exact.

    levels supplies s, t, u.  The components must have finite support: the
    law of the running state (S_k and four flags) is convolved one summand
    at a time, and PRODUCT_SUPPORT_CAP bounds the states of one step.
    Returns a dict of SlackReports keyed by inequality name; the
    summand_tails entry is omitted when P(X* <= t) = 0, where its
    right-hand side is infinite.
    """
    s, t, u = (_check_real(levels[k], f"level {k}") for k in "stu")
    events, q = _exact_sum_events(law, norm, s, t, u)
    p_sstar_t, p_slast_t, p_xstar, p_xstar_s, p_sstar_stu, p_slast_u, x_tails = events
    reports = {
        "levy": SlackReport.from_exact("levy", p_sstar_t, 2.0 * p_slast_t),
        "max_summand": SlackReport.from_exact("max_summand", p_xstar, 2.0 * p_slast_t),
        "hoffmann_jorgensen": SlackReport.from_exact(
            "hoffmann_jorgensen", p_sstar_stu, p_xstar_s + 2.0 * p_sstar_t * p_slast_u)}
    # rhs = P(X* > t) / P(X* <= t); the denominator is q, not 1 - P(X* > t)
    if q > 0.0:
        reports["summand_tails"] = SlackReport.from_exact("summand_tails", x_tails,
                                                          p_xstar / q)
    return reports
