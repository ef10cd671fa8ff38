"""Symmetric random-vector sources in R^d.

Two kinds of sources coexist:

* :class:`FiniteSupportDist` -- exactly representable symmetric laws given
  by atom/probability pairs.  These feed the exact enumeration oracles.
* :class:`SamplerSource` -- continuous families (gaussian, heavy-tailed
  stable/pareto, thinned/scaled/summed combinations) sampled with
  deterministic counter-based substreams.

All sampling is deterministic given (seed, stream, count) and independent
of the thread count: rng.CHUNK-row chunk j of a source draws from substream
(seed, *stream, j), and of product-law component i from (seed, *stream, i, j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.special import erfc

from .errors import CapacityError, ParameterError
from .rng import map_chunks, seed_sequence

DIMENSION_CAP = 16
PRODUCT_SUPPORT_CAP = 10**6

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class FiniteSupportDist:
    """Symmetric distribution on R^d with finitely many atoms.

    Atoms are (vector, probability) pairs.  Every nonzero atom must come
    with its mirror image at equal probability; the zero vector may stand
    alone.  Probabilities sum to one.
    """

    dimension: int
    atoms: tuple  # tuple of (tuple[float, ...], float)

    def __post_init__(self):
        if not (1 <= self.dimension <= DIMENSION_CAP):
            raise ParameterError(f"dimension must be in [1, {DIMENSION_CAP}], got {self.dimension}")
        if not self.atoms:
            raise ParameterError("finite-support law needs at least one atom")
        seen = {}
        total = 0.0
        for vec, p in self.atoms:
            if len(vec) != self.dimension:
                raise ParameterError("atom dimension mismatch")
            if not (0.0 < p <= 1.0):
                raise ParameterError(f"atom probability {p} outside (0, 1]")
            key = tuple(float(x) for x in vec)
            if key in seen:
                raise ParameterError(f"duplicate atom location {key}")
            seen[key] = p
            total += p
        if abs(total - 1.0) > _PROB_TOL:
            raise ParameterError(f"atom probabilities sum to {total}, not 1")
        for key, p in seen.items():
            if any(x != 0.0 for x in key):
                mirror = tuple(-x for x in key)
                q = seen.get(mirror)
                if q is None or abs(q - p) > _PROB_TOL:
                    raise ParameterError(f"missing or unbalanced mirror atom for {key}")

    @staticmethod
    def from_pairs(vectors, probs) -> "FiniteSupportDist":
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        atoms = tuple((tuple(v), float(p)) for v, p in zip(vectors, probs))
        return FiniteSupportDist(dimension=vectors.shape[1], atoms=atoms)

    @staticmethod
    def rademacher(value: float = 1.0) -> "FiniteSupportDist":
        return FiniteSupportDist.from_pairs([[value], [-value]], [0.5, 0.5])

    @staticmethod
    def symmetric_pairs(vectors, pair_probs, zero_prob: float = 0.0) -> "FiniteSupportDist":
        """Build from one representative of each +/- pair (half of the pair mass each)."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        vs, ps = [], []
        for v, p in zip(vectors, pair_probs):
            vs.extend([v, -v])
            ps.extend([p / 2.0, p / 2.0])
        if zero_prob > 0.0:
            vs.append(np.zeros(vectors.shape[1]))
            ps.append(zero_prob)
        return FiniteSupportDist.from_pairs(vs, ps)

    def vectors(self) -> np.ndarray:
        return np.array([v for v, _ in self.atoms], dtype=float)

    def probs(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms], dtype=float)

    @property
    def support_size(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class SamplerSource:
    """A symmetric continuous (or mixed) source, sampled on demand.

    ``family`` is one of gaussian, symmetric_stable, pareto_tail,
    bernoulli_thinned, scaled, sum_of; ``params`` holds the family's
    parameters.  Use the module-level constructors, which validate.
    """

    dimension: int
    family: str
    params: dict = field(repr=False)


def gaussian(covariance) -> SamplerSource:
    """Centered gaussian with the given symmetric PSD covariance matrix."""
    cov = np.atleast_2d(np.asarray(covariance, dtype=float))
    d = cov.shape[0]
    if cov.shape != (d, d) or not np.allclose(cov, cov.T, atol=1e-10):
        raise ParameterError("covariance must be a symmetric square matrix")
    w, v = np.linalg.eigh(cov)
    if w.min() < -1e-10 * max(1.0, w.max()):
        raise ParameterError("covariance must be positive semidefinite")
    factor = v * np.sqrt(np.clip(w, 0.0, None))  # X = factor @ Z
    return SamplerSource(dimension=d, family="gaussian",
                         params={"covariance": cov, "factor": factor})


def symmetric_stable(index: float, scale: float = 1.0) -> SamplerSource:
    """Scalar symmetric stable source with stability index in (0, 2].

    Every index is sampled by the Chambers-Mallows-Stuck transform, so
    ``scale * X`` with X standard symmetric stable (scipy's
    ``levy_stable(index, 0)``).  No closed-form survival is offered: tails
    are Monte Carlo estimates with intervals.
    """
    if not (0.0 < index <= 2.0):
        raise ParameterError(f"stability index must lie in (0, 2], got {index}")
    if scale <= 0.0:
        raise ParameterError("scale must be positive")
    return SamplerSource(dimension=1, family="symmetric_stable",
                         params={"index": float(index), "scale": float(scale)})


def pareto_tail(exponent: float) -> SamplerSource:
    """Scalar symmetric source with P(|X| > t) = min(1, t^-exponent)."""
    if exponent <= 0.0:
        raise ParameterError("tail exponent must be positive")
    return SamplerSource(dimension=1, family="pareto_tail",
                         params={"exponent": float(exponent)})


Source = Union[FiniteSupportDist, SamplerSource]


def bernoulli_thinned(inner: Source, keep: float) -> SamplerSource:
    """Source delta * X with delta ~ Bernoulli(keep) independent of X."""
    if not (0.0 < keep <= 1.0):
        raise ParameterError(f"keep-probability must lie in (0, 1], got {keep}")
    return SamplerSource(dimension=inner.dimension, family="bernoulli_thinned",
                         params={"inner": inner, "keep": float(keep)})


def scaled_source(inner: Source, factor: float) -> SamplerSource:
    """Source factor * X."""
    if factor == 0.0:
        raise ParameterError("scale factor must be nonzero")
    return SamplerSource(dimension=inner.dimension, family="scaled",
                         params={"inner": inner, "factor": float(factor)})


def sum_of(parts: Sequence[Source]) -> SamplerSource:
    """Sum of independent sources of equal dimension."""
    parts = tuple(parts)
    if not parts:
        raise ParameterError("sum_of needs at least one part")
    d = parts[0].dimension
    if any(p.dimension != d for p in parts):
        raise ParameterError("sum_of parts must share dimension")
    return SamplerSource(dimension=d, family="sum_of", params={"parts": parts})


@dataclass(frozen=True)
class ProductLaw:
    """Tuple (X_1, ..., X_n) of independent sources of equal dimension."""

    components: tuple

    def __post_init__(self):
        if not self.components:
            raise ParameterError("product law needs at least one component")
        d = self.components[0].dimension
        if any(c.dimension != d for c in self.components):
            raise ParameterError("all components must share dimension")

    @property
    def dimension(self) -> int:
        return self.components[0].dimension

    @property
    def n(self) -> int:
        return len(self.components)

    def all_finite(self) -> bool:
        return all(isinstance(c, FiniteSupportDist) for c in self.components)


Law = Union[FiniteSupportDist, SamplerSource, ProductLaw]


# ---------------------------------------------------------------------------
# sampling


def _draw(source: Source, n: int, ss: np.random.SeedSequence) -> np.ndarray:
    """Draw n vectors from a single source, using ss for this node and
    deterministic children of ss for nested sources."""
    rng = np.random.Generator(np.random.Philox(ss))
    if isinstance(source, FiniteSupportDist):
        idx = rng.choice(source.support_size, size=n, p=source.probs())
        return source.vectors()[idx]

    fam, par = source.family, source.params
    if fam == "gaussian":
        z = rng.standard_normal((n, source.dimension))
        return z @ par["factor"].T
    if fam == "pareto_tail":
        mag = rng.random(n) ** (-1.0 / par["exponent"])
        sign = rng.integers(0, 2, size=n) * 2.0 - 1.0
        return (sign * mag)[:, None]
    if fam == "symmetric_stable":
        alpha, scale = par["index"], par["scale"]
        sign = rng.integers(0, 2, size=n) * 2.0 - 1.0
        v = rng.uniform(-np.pi / 2, np.pi / 2, size=n)
        if alpha == 1.0:
            x = np.tan(v)
        else:
            w = rng.exponential(1.0, size=n)
            x = (np.sin(alpha * v) / np.cos(v) ** (1.0 / alpha)
                 * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha))
        return (scale * sign * x)[:, None]
    if fam == "bernoulli_thinned":
        child = ss.spawn(1)[0]
        keep = (rng.random(n) < par["keep"]).astype(float)
        return keep[:, None] * _draw(par["inner"], n, child)
    if fam == "scaled":
        child = ss.spawn(1)[0]
        return par["factor"] * _draw(par["inner"], n, child)
    if fam == "sum_of":
        children = ss.spawn(len(par["parts"]))
        out = np.zeros((n, source.dimension))
        for part, child in zip(par["parts"], children):
            out += _draw(part, n, child)
        return out
    raise ParameterError(f"unknown sampler family {fam!r}")


def _draw_chunk(law: Law, j: int, size: int, seed: int, stream: tuple) -> np.ndarray:
    """Chunk j of a source, shape (size, d), or of a product law, (size, n, d)."""
    if isinstance(law, ProductLaw):
        return np.stack([_draw(c, size, seed_sequence(seed, *stream, i, j))
                         for i, c in enumerate(law.components)], axis=1)
    return _draw(law, size, seed_sequence(seed, *stream, j))


def sample_sum_chunk(law: Law, j: int, size: int, seed: int, stream: tuple = ()) -> np.ndarray:
    """Chunk j of sample_sum: a product law's components added as sum(axis=1) adds them."""
    x = _draw_chunk(law, j, size, seed, stream)
    return x.sum(axis=1) if isinstance(law, ProductLaw) else x


def _gather(draw, law, count, seed, threads, stream) -> np.ndarray:
    """The ``count`` rows of a sample, chunk j drawn by draw(law, j, size, seed, stream)."""
    if count < 1:
        raise ParameterError("count must be >= 1")
    return np.concatenate(map_chunks(lambda j, lo, hi: draw(law, j, hi - lo, seed, stream),
                                     count, threads))


def sample(source: Source, count: int, seed: int, threads: int = 1,
           stream: tuple = ()) -> np.ndarray:
    """Sample ``count`` vectors, shape (count, d).

    Deterministic in (seed, count, stream); bit-identical for any thread
    count.  ``stream`` is an integer path prefix that isolates independent
    uses of the same master seed.
    """
    return _gather(_draw_chunk, source, count, seed, threads, stream)


def sample_outcomes(law: ProductLaw, count: int, seed: int, threads: int = 1,
                    stream: tuple = ()) -> np.ndarray:
    """Sample count outcome tuples from a product law, shape (count, n, d)."""
    return _gather(_draw_chunk, law, count, seed, threads, stream)


def sample_sum(law: Law, count: int, seed: int, threads: int = 1,
               stream: tuple = ()) -> np.ndarray:
    """Sample the vector X (for a plain source) or X_1+...+X_n (for a product law)."""
    return _gather(sample_sum_chunk, law, count, seed, threads, stream)


# ---------------------------------------------------------------------------
# exact enumeration


def enumerate_product(law: ProductLaw, cap: int = PRODUCT_SUPPORT_CAP):
    """All outcome tuples of a finite-support product law.

    Returns (outcomes, probs) with outcomes of shape (M, n, d); probs sum
    to 1 up to float rounding and each tuple of atoms appears exactly once.
    """
    if not law.all_finite():
        raise ParameterError("enumerate_product requires finite-support components")
    sizes = [c.support_size for c in law.components]
    total = math.prod(sizes)
    if total > cap:
        raise CapacityError(f"product support size {total} exceeds cap {cap}")
    grids = np.meshgrid(*[np.arange(s) for s in sizes], indexing="ij")
    idx = np.stack([g.reshape(-1) for g in grids], axis=1)  # (M, n)
    outcomes = np.stack(
        [law.components[i].vectors()[idx[:, i]] for i in range(law.n)], axis=1)
    probs = np.ones(total)
    for i in range(law.n):
        probs *= law.components[i].probs()[idx[:, i]]
    return outcomes, probs


def enumerate_sum(law: Law):
    """Atoms (vectors, probs) of the law of the sum; exact path only."""
    if isinstance(law, FiniteSupportDist):
        return law.vectors(), law.probs()
    if isinstance(law, ProductLaw):
        outcomes, probs = enumerate_product(law)
        return outcomes.sum(axis=1), probs
    raise ParameterError("exact enumeration needs a finite-support law")


# ---------------------------------------------------------------------------
# constructions


def thin(source: Source, p: float):
    """Bernoulli thinning delta * X with P(delta = 1) = p.

    Finite-support input yields the exact thinned finite-support law
    (the zero atom gains mass 1 - p); sampler input is wrapped.
    """
    if not (0.0 < p <= 1.0):
        raise ParameterError(f"keep-probability must lie in (0, 1], got {p}")
    if isinstance(source, FiniteSupportDist):
        if p == 1.0:
            return source
        zero = (0.0,) * source.dimension
        masses = {}
        for vec, q in source.atoms:
            key = tuple(float(x) for x in vec)
            masses[key] = masses.get(key, 0.0) + p * q
        masses[zero] = masses.get(zero, 0.0) + (1.0 - p)
        atoms = tuple(sorted(masses.items()))
        return FiniteSupportDist(dimension=source.dimension, atoms=atoms)
    return bernoulli_thinned(source, p)


# ---------------------------------------------------------------------------
# analytic tail oracles


def analytic_survival(source: Law) -> Optional[Callable[[float], float]]:
    """Closed-form survival function t -> P(|X| > t) when one exists (d = 1)."""
    if not isinstance(source, SamplerSource) or source.dimension != 1:
        return None
    fam, par = source.family, source.params

    if fam == "pareto_tail":
        delta = par["exponent"]
        return lambda t: 1.0 if t <= 1.0 else float(t) ** (-delta)
    if fam == "gaussian":
        sigma = math.sqrt(float(par["covariance"][0, 0]))
        if sigma == 0.0:
            return lambda t: 0.0 if t >= 0.0 else 1.0
        return lambda t: 1.0 if t <= 0.0 else float(erfc(t / (sigma * math.sqrt(2.0))))
    if fam == "scaled":
        inner = analytic_survival(par["inner"])
        if inner is None:
            return None
        c = abs(par["factor"])
        return lambda t: inner(t / c)
    if fam == "bernoulli_thinned":
        inner = analytic_survival(par["inner"])
        if inner is None:
            return None
        keep = par["keep"]
        return lambda t: 1.0 if t < 0.0 else keep * inner(t)
    return None
