"""Continuous norms on R^d and their unit balls.

Closed symmetric convex bodies are represented through their Minkowski
gauges, i.e. only as norms: membership of x in the body is evaluate(x) <= 1.
All evaluators are pure, accept single vectors or (m, d) batches, and are
safe to call concurrently.

Every kernel works on the (d, m) transpose of its batch and reduces along
the long point axis.  A batch may come in either memory order; a
Fortran-ordered (m, d) batch is transposed without a copy, so callers that
build large batches build them column-major.  The lp, weighted lp and
ellipsoid kernels accumulate the d rows one at a time into one array of m
values, in the order in which np.linalg.norm(axis=0) reduces a batch of
more than one vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import check_dimension
from .errors import ParameterError, _check_count, _check_real, _in_spec, _param_rows, _spec_tag
from .rng import substream

ELLIPSOID_CONDITION_CAP = 1e3


def _as_batch(x, d):
    """x as a C-contiguous (d, m) array, and whether x was a single vector."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[-1] != d:
        raise ParameterError(f"vector dimension {x.shape[-1]} != norm dimension {d}")
    return np.ascontiguousarray(x.T), single


def _ret(vals, single):
    return float(vals[0]) if single else vals


def _lp_rows(xt, p, w=None):
    """np.linalg.norm(xt * w, ord=p, axis=0) of a (d, m) batch xt and a (d, 1)
    weight column w (1 when None): |x_k w_k| ** p summed, or maximised, over
    the rows k into one array, one row at a time.  That is numpy's order, bit
    for bit, except on one column of 8 or more rows, which numpy sums
    pairwise; here a single vector gets the bits of its row in any batch.  One
    row at p = 2 takes the p = 1 path, |x w|, which is sqrt(x w * x w) wherever
    that square is a normal float, and neither underflows nor overflows."""
    if len(xt) == 1 and p == 2.0:
        p = 1.0
    out = np.empty(xt.shape[1])
    tmp = np.empty_like(out) if len(xt) > 1 else None
    for k, row in enumerate(xt):
        term = out if k == 0 else tmp
        if w is not None:
            row = np.multiply(row, w[k], out=term)
        if p == 2.0:
            np.multiply(row, row, out=term)
        else:
            np.abs(row, out=term)
            if p not in (1.0, math.inf):
                term **= p
        if k and p == math.inf:
            np.maximum(out, term, out=out)
        elif k:
            out += term
    if p == 2.0:
        np.sqrt(out, out=out)
    elif p not in (1.0, math.inf):
        out **= 1.0 / p
    return out


@dataclass(frozen=True)
class LpNorm:
    dimension: int
    p: float  # in [1, inf]

    def __post_init__(self):
        if self.p != math.inf:
            object.__setattr__(self, "p", _check_real(self.p, "lp exponent", "[1, inf)"))

    def evaluate(self, x):
        xt, single = _as_batch(x, self.dimension)
        return _ret(_lp_rows(xt, self.p), single)


@dataclass(frozen=True)
class WeightedLpNorm:
    dimension: int
    p: float
    weights: tuple
    _w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        LpNorm.__post_init__(self)  # p >= 1
        w = _param_rows([self.weights], "weights")
        if w.shape[1] != self.dimension or (w <= 0).any():
            raise ParameterError("weights must be positive, one per coordinate")
        object.__setattr__(self, "weights", tuple(w[0].tolist()))
        object.__setattr__(self, "_w", w.T)

    def evaluate(self, x):
        xt, single = _as_batch(x, self.dimension)
        return _ret(_lp_rows(xt, self.p, self._w), single)


@dataclass(frozen=True)
class EllipsoidNorm:
    """||x|| = sqrt(x^T A x) for symmetric positive-definite A."""

    matrix: tuple  # row tuples, for hashability
    _a: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = _param_rows(self.matrix, "ellipsoid matrix", symmetric=True)
        if np.linalg.eigvalsh(a).min() <= 0:
            raise ParameterError("ellipsoid matrix must be positive definite")
        object.__setattr__(self, "matrix", tuple(map(tuple, a.tolist())))
        object.__setattr__(self, "_a", a)

    @property
    def dimension(self):
        return len(self.matrix)

    def evaluate(self, x):
        xt, single = _as_batch(x, self.dimension)
        q = np.zeros(xt.shape[1])
        term = np.empty_like(q)
        for a_i, x_i in zip(self._a, xt):  # x^T A x, one row at a time
            np.matmul(a_i, xt, out=term)
            term *= x_i
            q += term
        np.maximum(q, 0.0, out=q)
        return _ret(np.sqrt(q, out=q), single)


@dataclass(frozen=True)
class PolytopeGauge:
    """||x|| = max_j |<u_j, x>| for directions u_j spanning R^d."""

    directions: tuple  # row tuples
    _u: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u = _param_rows(self.directions, "polytope gauge directions")
        if np.linalg.matrix_rank(u) < u.shape[1]:
            raise ParameterError("polytope gauge directions must span R^d")
        object.__setattr__(self, "directions", tuple(map(tuple, u.tolist())))
        object.__setattr__(self, "_u", u)

    @property
    def dimension(self):
        return self._u.shape[1]

    def evaluate(self, x):
        xt, single = _as_batch(x, self.dimension)
        y = self._u @ xt
        np.abs(y, out=y)
        return _ret(y.max(axis=0), single)


@dataclass(frozen=True)
class ScaledNorm:
    inner: object
    factor: float

    def __post_init__(self):
        object.__setattr__(self, "factor", _check_real(self.factor, "scale factor", "(0, inf)"))

    @property
    def dimension(self):
        return self.inner.dimension

    def evaluate(self, x):
        vals = self.inner.evaluate(x)
        if isinstance(vals, float):
            return self.factor * vals
        vals *= self.factor  # every kernel returns a new array
        return vals


def scale_norm(norm, factor: float):
    """scaled(N, c): evaluates to c * N(x); the unit ball shrinks by 1/c."""
    return ScaledNorm(inner=norm, factor=factor)


def monotone_in_abs(norm) -> bool:
    """Whether norm is on R^1 and evaluates, bit for bit, an even, non-decreasing
    function of |x|: an lp or weighted lp norm with p in {1, 2, inf}, scaled any
    number of times.  On one row its kernel takes |x| times positive constants
    (p = 2 takes the p = 1 path), each a correctly rounded IEEE op, and rounding
    never reverses an order.
    Other p go through pow, and an ellipsoid or a gauge through BLAS products, so
    no such order is known for them."""
    while isinstance(norm, ScaledNorm):
        norm = norm.inner
    return (isinstance(norm, (LpNorm, WeightedLpNorm)) and norm.dimension == 1
            and norm.p in (1.0, 2.0, math.inf))


def euclidean(d: int) -> LpNorm:
    return LpNorm(dimension=d, p=2.0)


def absolute_value() -> LpNorm:
    return LpNorm(dimension=1, p=2.0)


def norm_family(norms, dimension: int) -> tuple:
    """The norms as a tuple, checked to be a nonempty family of norms on R^dimension;
    a member with no dimension is not a norm."""
    norms = tuple(norms)
    if not norms:
        raise ParameterError("the norm family must be nonempty")
    for norm in norms:
        dim = getattr(norm, "dimension", None)
        if dim is None:
            raise ParameterError(f"{norm!r} is not a norm")
        if dim != dimension:
            raise ParameterError(f"norm dimension {dim} != law dimension {dimension}")
    return norms


# ---------------------------------------------------------------------------
# serialization


def norm_to_spec(norm) -> dict:
    if isinstance(norm, LpNorm):
        return {"variant": "lp", "dimension": norm.dimension,
                "p": "inf" if np.isinf(norm.p) else norm.p}
    if isinstance(norm, WeightedLpNorm):
        return {"variant": "weighted_lp", "dimension": norm.dimension,
                "p": "inf" if np.isinf(norm.p) else norm.p,
                "weights": list(norm.weights)}
    if isinstance(norm, EllipsoidNorm):
        return {"variant": "ellipsoid", "matrix": [list(r) for r in norm.matrix]}
    if isinstance(norm, PolytopeGauge):
        return {"variant": "polytope_gauge",
                "directions": [list(r) for r in norm.directions]}
    if isinstance(norm, ScaledNorm):
        return {"variant": "scaled", "factor": norm.factor,
                "inner": norm_to_spec(norm.inner)}
    raise ParameterError(f"unknown norm type {type(norm).__name__}")


_NORM_KEYS = {  # variant -> its (required, optional) keys besides "variant"
    "lp": (("dimension", "p"), ()),
    "weighted_lp": (("dimension", "p", "weights"), ()),
    "ellipsoid": (("matrix",), ()),
    "polytope_gauge": (("directions",), ()),
    "scaled": (("factor", "inner"), ()),
}


def norm_from_spec(spec: dict, context: str = "norm"):
    variant = _spec_tag(spec, "variant", _NORM_KEYS, context)
    if variant in ("lp", "weighted_lp"):
        d = _check_count(spec["dimension"], f"{context}: dimension", 1)
        p = math.inf if spec["p"] in ("inf", None) else spec["p"]  # the max norm
        if variant == "lp":
            return _in_spec(context, LpNorm, dimension=d, p=p)
        return _in_spec(context, WeightedLpNorm, dimension=d, p=p, weights=spec["weights"])
    if variant == "ellipsoid":
        return _in_spec(context, EllipsoidNorm, matrix=spec["matrix"])
    if variant == "polytope_gauge":
        return _in_spec(context, PolytopeGauge, directions=spec["directions"])
    return _in_spec(context, ScaledNorm, inner=norm_from_spec(spec["inner"], context + ".inner"),
                    factor=spec["factor"])


# ---------------------------------------------------------------------------
# random families


def _random_ellipsoid(rng, d):
    z = rng.standard_normal((d, d))
    q, _ = np.linalg.qr(z)
    cond = 10.0 ** rng.uniform(0.0, np.log10(ELLIPSOID_CONDITION_CAP))
    eig = np.exp(rng.uniform(0.0, 1.0, size=d))
    eig = 1.0 + (eig - eig.min()) / max(eig.max() - eig.min(), 1e-12) * (cond - 1.0)
    scale = 10.0 ** rng.uniform(-0.5, 0.5)
    a = (q * (scale * eig)) @ q.T
    a = (a + a.T) / 2.0
    return EllipsoidNorm(matrix=tuple(tuple(row) for row in a))


def _random_polytope(rng, d):
    m = int(rng.integers(d, 4 * d + 1))
    u = rng.standard_normal((m, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)  # m >= d: spans R^d almost surely
    return PolytopeGauge(directions=tuple(tuple(row) for row in u))


def _random_weighted(rng, d):
    w = 10.0 ** rng.uniform(-1.0, 1.0, size=d)
    p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
    return WeightedLpNorm(dimension=d, p=p, weights=tuple(w))


def random_norm_family(seed: int, d: int, size: int):
    """Deterministic adversarial family of ``size`` norms on R^d.

    The family always opens with the l2, l1 and l-infinity norms and
    then cycles through random ellipsoids (condition number capped),
    polytope gauges with at most 4d unit directions, weighted lp norms and
    rescalings.
    """
    _check_count(size, "family size", 1)
    check_dimension(d)
    rng = substream(seed, 0)
    norms = [LpNorm(dimension=d, p=2.0), LpNorm(dimension=d, p=1.0),
             LpNorm(dimension=d, p=np.inf)][:size]
    makers = [_random_ellipsoid, _random_polytope, _random_weighted]
    i = 0
    while len(norms) < size:
        norm = makers[i % len(makers)](rng, d)
        if rng.random() < 0.3:
            norm = scale_norm(norm, 10.0 ** rng.uniform(-0.5, 0.5))
        norms.append(norm)
        i += 1
    return norms
