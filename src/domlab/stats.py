"""Probability estimates, confidence intervals and comparison reports."""

from __future__ import annotations

from dataclasses import dataclass

from scipy.special import betaincinv

from .errors import ParameterError, _check_count, _check_real

DEFAULT_CONFIDENCE = 0.99


@dataclass(frozen=True)
class Estimator:
    """How tail probabilities are computed: exactly or by Monte Carlo."""

    kind: str  # "exact" or "mc"
    budget: int = 10**6
    confidence: float = DEFAULT_CONFIDENCE

    def __post_init__(self):
        if self.kind not in ("exact", "mc"):
            raise ParameterError(f"unknown estimator kind {self.kind!r}")
        _check_count(self.budget, "mc budget", 1)  # for every kind: none passes unread
        object.__setattr__(self, "confidence", _check_real(self.confidence, "confidence", "(0, 1)"))


EXACT = Estimator(kind="exact")


def clopper_pearson(k: int, n: int, confidence: float = DEFAULT_CONFIDENCE):
    """Two-sided exact binomial confidence interval for k successes in n trials."""
    if not (0 <= k <= n) or n < 1:
        raise ParameterError("need 0 <= k <= n, n >= 1")
    a = (1.0 - _check_real(confidence, "confidence", "(0, 1)")) / 2.0
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, a))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - a))
    return lo, hi


@dataclass(frozen=True)
class TailEstimate:
    """P(event) either exactly or with a two-sided confidence interval."""

    value: float
    lo: float
    hi: float
    exact: bool
    samples: int = 0
    confidence: float = DEFAULT_CONFIDENCE

    @staticmethod
    def from_exact(value: float) -> "TailEstimate":
        return TailEstimate(value=value, lo=value, hi=value, exact=True)

    @staticmethod
    def from_counts(k: int, n: int,
                    confidence: float = DEFAULT_CONFIDENCE) -> "TailEstimate":
        lo, hi = clopper_pearson(k, n, confidence)
        return TailEstimate(value=k / n, lo=lo, hi=hi, exact=False,
                            samples=n, confidence=confidence)

    def to_json(self) -> dict:
        out = {"value": self.value, "exact": self.exact}
        if not self.exact:
            out.update({"lo": self.lo, "hi": self.hi, "samples": self.samples,
                        "confidence": self.confidence})
        return out


# The package's one float-noise tolerance: a slack below this, relative to the
# larger side, is not a violation, and masses or values closer than this,
# relative to the larger, are equal.
EXACT_SLACK_TOL = 1e-12


def compare_tails(px: TailEstimate, py: TailEstimate, factor: float) -> str:
    """Three-valued verdict for the claim P_x <= factor * P_y.

    This is the one verdict rule of the package.  Exact estimates compare
    directly, up to a slack of EXACT_SLACK_TOL relative to the larger side,
    with no absolute floor (an exact tail is a sum of non-negative masses or a
    closed form, so its rounding error is relative to its value); interval
    estimates report "violated" only when even the most favorable reading
    fails, "holds" only when the least favorable reading passes, else
    "inconclusive".
    """
    if px.exact and py.exact:
        bound = factor * py.value
        scale = max(abs(px.value), abs(bound))
        if px.value <= bound + EXACT_SLACK_TOL * scale:
            return "holds"
        return "violated"
    if px.lo > factor * py.hi:
        return "violated"
    if px.hi <= factor * py.lo:
        return "holds"
    return "inconclusive"


@dataclass(frozen=True)
class SlackReport:
    """One inequality lhs <= rhs, verified exactly."""

    name: str
    lhs: float
    rhs: float
    verdict: str
    method = "exact"  # every report compares exact values

    @property
    def holds(self) -> bool:
        return self.verdict != "violated"

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @staticmethod
    def from_exact(name: str, lhs: float, rhs: float) -> "SlackReport":
        verdict = compare_tails(TailEstimate.from_exact(lhs), TailEstimate.from_exact(rhs),
                                1.0)
        return SlackReport(name=name, lhs=lhs, rhs=rhs, verdict=verdict)

    def to_json(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "holds": self.holds, "slack": self.slack, "method": self.method}


def worst_verdict(verdicts) -> str:
    order = {"holds": 0, "inconclusive": 1, "violated": 2}
    worst = "holds"
    for v in verdicts:
        if order[v] > order[worst]:
            worst = v
    return worst
