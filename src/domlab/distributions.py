"""Symmetric random-vector sources in R^d.

Three kinds of laws coexist:

* :class:`FiniteSupportDist` -- exactly representable symmetric laws given
  by atom/probability pairs.  These feed the exact enumeration oracles.
* :class:`SamplerSource` -- continuous families (gaussian, heavy-tailed
  stable/pareto and scaled sources) sampled with deterministic
  counter-based substreams.
* :class:`ProductLaw` -- independent laws X_1, ..., X_n, which stands for
  their sum wherever one law is expected.

Each law says whether it is finite; a product law is when all its
components are, nested sums included.  Scaling a finite law gives a finite
law.

Sources are sampled one rng.CHUNK-row chunk at a time (sample_sum_chunk);
callers stream the chunks and hold at most one per worker thread, so memory
does not grow with the Monte Carlo budget.  One path rule, at every depth:
component i of a sum at path p sits at (*p, i), and a single source at path
p draws chunk j from substream (seed, *p, j).  Nothing spawns, so every draw
is deterministic in (seed, stream, j) and independent of the thread count.
Each map_chunks
worker has one rng.Workspace, and the tail engine draws and sums a chunk in
its arrays: the only new arrays that drawing and summing a chunk make are
the raw bits of the signs and rng.choice's draws of a finite law's atoms.
Every family writes in place the bits of the allocating formula it
replaced.

Exact enumeration of a finite-support product law has two forms, each
bounded by PRODUCT_SUPPORT_CAP on the atoms that one step builds:

* enumerate_sum -- the distinct atoms of the sum, convolved one component
  at a time with exactly equal atoms merged after each step (the cap
  counts the atoms of one step before the merge);
* enumerate_sign_classes -- outcome tuples up to the sign of each summand,
  for functions that no single sign flip changes (the cap counts classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import (CapacityError, ParameterError, _check_count, _check_list, _check_real,
                     _param_rows)
from .rng import Workspace, seed_sequence, workspace
from .stats import EXACT_SLACK_TOL

DIMENSION_CAP = 16
PRODUCT_SUPPORT_CAP = 10**6


def check_dimension(d: int) -> int:
    """d, checked to be an integer in [1, DIMENSION_CAP]."""
    if _check_count(d, "dimension", 1) > DIMENSION_CAP:
        raise ParameterError(f"dimension must be in [1, {DIMENSION_CAP}], got {d}")
    return d


@dataclass(frozen=True)
class FiniteSupportDist:
    """Symmetric distribution on R^d with finitely many atoms.

    Atoms are (vector, probability) pairs.  Every nonzero atom must come
    with its mirror image at equal probability, within EXACT_SLACK_TOL of the
    larger of the two; the zero vector may stand alone.  Probabilities sum
    to one, within EXACT_SLACK_TOL.
    """

    finite = True
    dimension: int
    atoms: tuple  # tuple of (tuple[float, ...], float)
    _vectors: np.ndarray = field(init=False, repr=False, compare=False)
    _probs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_dimension(self.dimension)
        rows = _param_rows([vec for vec, _ in self.atoms], "atom vectors")
        if rows.shape[1] != self.dimension:
            raise ParameterError("atom dimension mismatch")
        seen = {}
        for i, (key, (_, p)) in enumerate(zip(map(tuple, rows.tolist()), self.atoms)):
            if key in seen:
                raise ParameterError(f"duplicate atom location {key}")
            seen[key] = _check_real(p, f"atom {i} probability", "(0, 1]")
        object.__setattr__(self, "atoms", tuple(seen.items()))
        total = sum(seen.values())
        if abs(total - 1.0) > EXACT_SLACK_TOL:
            raise ParameterError(f"atom probabilities sum to {total}, not 1")
        for key, p in seen.items():
            q = seen.get(tuple(-x for x in key))  # -0.0 == 0.0: zero mirrors itself
            if q is None or abs(q - p) > EXACT_SLACK_TOL * max(p, q):
                raise ParameterError(f"missing or unbalanced mirror atom for {key}")
        probs = np.array(list(seen.values()))
        probs.setflags(write=False)
        object.__setattr__(self, "_vectors", rows)  # no duplicates: one row per atom
        object.__setattr__(self, "_probs", probs)

    @staticmethod
    def from_pairs(vectors, probs) -> "FiniteSupportDist":
        vectors = _check_list(vectors, "atom vectors")
        return FiniteSupportDist(dimension=len(_check_list(vectors[0], "atom vectors[0]")),
                                 atoms=tuple(zip(vectors, probs)))

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
        """The atom vectors, one read-only row per atom in the order of atoms."""
        return self._vectors

    def probs(self) -> np.ndarray:
        """The atom probabilities, read-only, in the order of atoms."""
        return self._probs

    @property
    def support_size(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class SamplerSource:
    """A symmetric continuous (or mixed) source, sampled on demand.

    ``family`` is one of gaussian, symmetric_stable, pareto_tail, scaled;
    ``params`` holds the family's parameters.  A source is never a sum, and a
    scaled one draws its inner source on its own substream: nothing spawns.
    Use the module-level constructors, which validate.
    """

    finite = False
    dimension: int
    family: str
    params: dict = field(repr=False)


def gaussian(covariance) -> SamplerSource:
    """Centered gaussian with the given covariance matrix, which must be symmetric
    and positive semidefinite to 1e-10 of its largest |entry|."""
    cov = _param_rows(covariance, "covariance", symmetric=True)
    check_dimension(len(cov))
    w, v = np.linalg.eigh(cov)
    if w.min() < -1e-10 * np.abs(cov).max():  # relative: no absolute floor for tiny scales
        raise ParameterError("covariance must be positive semidefinite")
    factor = v * np.sqrt(np.clip(w, 0.0, None))  # X = factor @ Z
    return SamplerSource(dimension=len(cov), family="gaussian",
                         params={"covariance": cov, "factor": factor})


def gaussian_covariance(law: Law) -> Optional[np.ndarray]:
    """The validated, read-only covariance of a gaussian source; None for any other law."""
    if isinstance(law, SamplerSource) and law.family == "gaussian":
        return law.params["covariance"]
    return None


def symmetric_stable(index: float, scale: float = 1.0) -> SamplerSource:
    """Scalar symmetric stable source with stability index in (0, 2].

    Every index is sampled by the Chambers-Mallows-Stuck transform, so
    ``scale * X`` with X standard symmetric stable (scipy's
    ``levy_stable(index, 0)``).  No closed-form survival is offered: tails
    are Monte Carlo estimates with intervals.
    """
    return SamplerSource(dimension=1, family="symmetric_stable",
                         params={"index": _check_real(index, "stability index", "(0, 2]"),
                                 "scale": _check_real(scale, "scale", "(0, inf)")})


def pareto_tail(exponent: float) -> SamplerSource:
    """Scalar symmetric source with P(|X| > t) = min(1, t^-exponent)."""
    return SamplerSource(dimension=1, family="pareto_tail",
                         params={"exponent": _check_real(exponent, "tail exponent", "(0, inf)")})


def scaled_source(inner: Law, factor: float) -> Law:
    """Source factor * X; finite again when X is finite, a sum when X is."""
    factor = _check_real(factor, "scale factor")
    if factor == 0.0:
        raise ParameterError("scale factor must be nonzero")
    if isinstance(inner, FiniteSupportDist):
        return FiniteSupportDist.from_pairs(factor * inner.vectors(), inner.probs())
    if isinstance(inner, ProductLaw):  # c (X_1 + ... + X_n) = c X_1 + ... + c X_n
        return ProductLaw(tuple(scaled_source(c, factor) for c in inner.components))
    return SamplerSource(dimension=inner.dimension, family="scaled",
                         params={"inner": inner, "factor": factor})


@dataclass(frozen=True)
class ProductLaw:
    """Tuple (X_1, ..., X_n) of independent laws of equal dimension; as one
    law, such as a component of another product law, it is X_1 + ... + X_n."""

    components: tuple

    def __post_init__(self):
        if not self.components:
            raise ParameterError("a product law or sum needs at least one component")
        d = self.components[0].dimension
        if any(c.dimension != d for c in self.components):
            raise ParameterError("all components must share dimension")

    @property
    def dimension(self) -> int:
        return self.components[0].dimension

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def finite(self) -> bool:
        return all(c.finite for c in self.components)


Law = Union[FiniteSupportDist, SamplerSource, ProductLaw]


# ---------------------------------------------------------------------------
# sampling


def _signs(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """rng.integers(0, 2, size=len(out)) * 2.0 - 1.0, written into out, with the
    same later draws.  For range 2, Lemire's method returns the top bit of a
    32-bit draw, and Philox hands out the low half of each 64-bit draw first
    (read here as the first uint32 of its little-endian bytes)."""
    n = len(out)
    bits = rng.bit_generator.random_raw((n + 1) // 2).view(np.uint32)[:n]
    np.right_shift(bits, 31, out=bits)
    np.multiply(bits, 2.0, out=out)
    out -= 1.0
    return out


def _draw(source: Law, out: np.ndarray, ss: np.random.SeedSequence,
          ws: Workspace) -> np.ndarray:
    """Draw len(out) vectors of a single source, never a sum, on its substream
    ss into out, a C-contiguous (n, d) array, and return out; a scaled source
    draws its inner source on ss too, so nothing spawns.  A family's scratch
    arrays are ws's "normal", "sign", "exponential" and "stable" arrays, which
    out must not be.  Every family gives the bits of the allocating numpy
    formula it replaces."""
    n = len(out)
    rng = np.random.Generator(np.random.Philox(ss))
    if isinstance(source, FiniteSupportDist):
        idx = rng.choice(source.support_size, size=n, p=source.probs())
        return np.take(source.vectors(), idx, axis=0, out=out, mode="clip")  # unbuffered

    fam, par = source.family, source.params
    if fam == "gaussian":  # standard_normal((n, d)) @ factor.T
        z = rng.standard_normal(out=ws.array("normal", out.shape))
        return np.matmul(z, par["factor"].T, out=out)
    x = out[:, 0]
    if fam == "pareto_tail":  # sign * random(n) ** (-1 / exponent)
        rng.random(out=x)
        x **= -1.0 / par["exponent"]
        x *= _signs(rng, ws.array("sign", (n,)))
        return out
    if fam == "symmetric_stable":  # Chambers-Mallows-Stuck: scale * sign * x
        alpha = par["index"]
        sign = _signs(rng, ws.array("sign", (n,)))
        v = rng.random(out=x)  # uniform(-pi/2, pi/2) is -pi/2 + pi * random()
        v *= np.pi
        v -= np.pi / 2
        if alpha == 1.0:
            np.tan(v, out=v)
        else:  # sin(a v) / cos(v) ** (1/a) * (cos((1-a) v) / w) ** ((1-a)/a)
            w = rng.standard_exponential(out=ws.array("exponential", (n,)))
            t = np.multiply(v, 1.0 - alpha, out=ws.array("stable", (n,)))
            np.cos(t, out=t)
            t /= w
            t **= (1.0 - alpha) / alpha
            np.cos(v, out=w)
            w **= 1.0 / alpha
            v *= alpha
            np.sin(v, out=v)
            v /= w
            v *= t
        v *= par["scale"]
        v *= sign
        return out
    if fam == "scaled":
        _draw(par["inner"], out, ss, ws)
        out *= par["factor"]
        return out
    raise ParameterError(f"unknown sampler family {fam!r}")


def _parts(law: Law, path: tuple) -> list:
    """(source, path) of every single source of law at path, depth first."""
    if isinstance(law, ProductLaw):
        return [part for i, c in enumerate(law.components) for part in _parts(c, (*path, i))]
    return [(law, path)]


def _draw_chunk(law: ProductLaw, j: int, size: int, seed: int, stream: tuple) -> np.ndarray:
    """Chunk j of a product law's components as a new (size, n, d) array: column
    i is component i's sample_sum_chunk on (*stream, i)."""
    out = np.empty((size, law.n, law.dimension))
    for i, component in enumerate(law.components):
        sample_sum_chunk(component, j, size, seed, (*stream, i), out[:, i])
    return out


def sample_sum_chunk(law: Law, j: int, size: int, seed: int, stream: tuple,
                     out: np.ndarray) -> np.ndarray:
    """Chunk j of the vector X (a source) or of X_1 + ... + X_n (a product law,
    nested sums included), written into out, a (size, d) array, and returned;
    the draws' scratch arrays are rng.workspace()'s.  The path rule: the law
    sits at path stream, component i of a sum at path p at (*p, i), and a
    single source at path p draws on substream (seed, *p, j); nothing spawns.

    The single sources are added in place, depth first, which for a flat sum
    is how sum(axis=1) adds them; numpy adds eight or more one-dimensional
    components pairwise, so there the last bits may differ from sum(axis=1).
    The parts are drawn C-ordered, and numpy adds arrays of two memory orders
    many times slower than arrays of one, so a sum of parts into an out that
    is not C-contiguous runs in the workspace's C-ordered "running" array and
    is copied into out once.
    """
    ws = workspace()
    part = ws.array("part", out.shape)
    parts = _parts(law, stream)
    one_order = out.flags.c_contiguous or len(parts) == 1
    acc = out if one_order else ws.array("running", out.shape)
    for i, (source, path) in enumerate(parts):
        x = _draw(source, part, seed_sequence(seed, *path, j), ws)
        if i == 0:
            np.copyto(acc, x)
        else:
            acc += x
    if acc is not out:
        np.copyto(out, acc)
    return out


# ---------------------------------------------------------------------------
# exact enumeration


def _fold_signs(vectors: np.ndarray, probs: np.ndarray):
    """One representative per +/- pair of atoms carrying the pair's mass, and
    the zero atom, as (vectors, probs)."""
    index, kept, masses = {}, [], []
    for key, p in zip(map(tuple, vectors.tolist()), probs.tolist()):
        i = index.get(tuple(-x for x in key))
        if i is None:
            index[key] = len(masses)
            kept.append(key)
            masses.append(p)
        else:
            masses[i] += p
    return np.array(kept, dtype=float), np.array(masses)


def enumerate_sign_classes(law: ProductLaw):
    """Outcome tuples of a finite-support product law up to the sign of each summand.

    Every component keeps one atom per +/- pair, carrying the pair's mass,
    plus its zero atom.  Returns (outcomes, probs) with outcomes of shape
    (M, n, d), classes in row-major order of the components' kept atoms.
    A function of the tuple that no single sign flip x_i -> -x_i changes,
    such as E_eps ||sum eps_i x_i||, has the same law over these classes
    as over the tuples.  PRODUCT_SUPPORT_CAP bounds the number of classes.
    """
    parts = [_fold_signs(*enumerate_sum(c)) for c in law.components]
    sizes = [len(p) for _, p in parts]
    if math.prod(sizes) > PRODUCT_SUPPORT_CAP:
        raise CapacityError(f"sign-class count {math.prod(sizes)} exceeds cap "
                            f"{PRODUCT_SUPPORT_CAP}")
    idx = np.indices(sizes).reshape(len(sizes), -1)  # (n, M)
    outcomes = np.stack([v[i] for (v, _), i in zip(parts, idx)], axis=1)
    return outcomes, np.prod([p[i] for (_, p), i in zip(parts, idx)], axis=0)


def _step_masses(probs: np.ndarray, comp_probs: np.ndarray) -> np.ndarray:
    """Masses of every (atom, comp atom) pair of one convolution step, row-major;
    PRODUCT_SUPPORT_CAP bounds their number."""
    size = len(probs) * len(comp_probs)
    if size > PRODUCT_SUPPORT_CAP:
        raise CapacityError(f"{size} atoms before merging exceed the product "
                            f"support cap {PRODUCT_SUPPORT_CAP}")
    return np.multiply.outer(probs, comp_probs).reshape(size)


def _merge_atoms(vectors: np.ndarray, probs: np.ndarray):
    """Merge rows with exactly equal vectors, adding their masses.

    The order contract, on which the bits of every exact tail sum depend:
    rows are sorted lexicographically by their coordinates, first column
    first, with a stable sort in which -0.0 equals 0.0; each run of equal
    rows keeps its first row, and its masses are added in sorted order.
    For d = 2 one stable argsort of the rows read as complex numbers gives
    that order, since numpy orders complex numbers by real part, then
    imaginary part; every other d sorts with np.lexsort.
    """
    keys = vectors
    if vectors.shape[1] == 2:
        keys = np.ascontiguousarray(vectors).view(np.complex128)  # (m, 1)
        order = np.argsort(keys[:, 0], kind="stable")
    else:
        order = np.lexsort(vectors.T[::-1])
    keys, probs = keys[order], probs[order]
    first = np.empty(len(probs), dtype=bool)
    first[0] = True
    np.any(keys[1:] != keys[:-1], axis=1, out=first[1:])
    return keys[first].view(np.float64), np.bincount(np.cumsum(first) - 1, weights=probs)


def enumerate_sum(law: Law):
    """Distinct atoms (vectors, probs) of the law of the sum; exact path only.

    A product law is convolved one component at a time.  Partial sums are
    added left to right, so every atom is bit-identical to the sum of a
    tuple added in that order; after each step, atoms with exactly equal
    vectors are merged and their masses added by _merge_atoms.  Its order
    contract fixes the bits of every exact tail sum: atoms come out sorted
    lexicographically by a stable sort in which -0.0 equals 0.0, and a
    merged mass adds its pairs' masses in that order.  PRODUCT_SUPPORT_CAP
    bounds the atoms of one step before they are merged; no outcome tuple
    is built.  A nested sum is enumerated first, as one component.
    """
    if not law.finite:
        raise ParameterError("exact enumeration needs a finite-support law")
    if isinstance(law, FiniteSupportDist):
        return law.vectors(), law.probs()
    (vectors, probs), *rest = (enumerate_sum(c) for c in law.components)
    for comp_vectors, comp_probs in rest:
        masses = _step_masses(probs, comp_probs)
        vectors, probs = _merge_atoms(
            (vectors[:, None, :] + comp_vectors).reshape(len(masses), -1), masses)
    return vectors, probs


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
        from scipy.special import erfc  # on first use: scipy.special is slow to import
        return lambda t: 1.0 if t <= 0.0 else float(erfc(t / (sigma * math.sqrt(2.0))))
    if fam == "scaled":
        inner = analytic_survival(par["inner"])
        if inner is None:
            return None
        c = abs(par["factor"])
        return lambda t: inner(t / c)
    return None
