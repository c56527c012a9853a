"""Confidence-interval helpers shared by campaigns and composition.

Campaign outcome rates are binomial proportions, so
:func:`wilson_interval` gives the standard score interval (well-behaved
at 0/n and n/n, unlike the Wald interval).  Composed whole-program
estimates are *weighted sums* of independent per-section proportions;
:func:`composed_interval` propagates the per-section binomial variances
through the weights and reports a normal-approximation interval,
clamped to [0, 1] — exactly the DETOx-style budget-vs-confidence
readout the incremental campaign engine owes its callers (DESIGN §15).
:func:`composed_summary` is the one summary dict stratified and
section-composed campaigns report from it.

Degenerate inputs fail loudly: ``k > n``, ``k < 0``, negative trial
counts, negative weights and NaN/inf anywhere raise :class:`ValueError`
instead of silently propagating a NaN into a journaled CI (an earlier
bug — ``composed_interval`` accepted ``k > n`` and emitted intervals
wider than [0, 1] with nonsensical centers).  The only *tolerated*
degeneracy is ``n == 0``, which has a well-defined vacuous answer:
``wilson_interval`` returns ``(0.0, 1.0)`` and ``composed_interval``
books that stratum at maximum binomial variance rather than false
certainty.

:func:`neyman_allocation` splits an injection budget across sampling
strata proportionally to ``weight × std-dev`` (the variance-minimising
allocation for a weighted-sum estimator); :mod:`repro.fi.prune` uses it
to concentrate a campaign's budget on the strata that still carry SDC
variance.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

from .outcomes import Outcome

__all__ = [
    "wilson_interval",
    "composed_interval",
    "composed_summary",
    "neyman_allocation",
    "DEFAULT_Z",
]

#: two-sided 95% normal quantile — the interval every summary reports
DEFAULT_Z = 1.96


def _check_counts(k: int, n: int) -> None:
    """Shared loud validation of one (successes, trials) pair."""
    if isinstance(n, float) and not math.isfinite(n):
        raise ValueError(f"trial count must be finite, got n={n!r}")
    if isinstance(k, float) and not math.isfinite(k):
        raise ValueError(f"success count must be finite, got k={k!r}")
    if n < 0:
        raise ValueError(f"trial count must be >= 0, got n={n}")
    if not 0 <= k <= max(n, 0):
        raise ValueError(f"need 0 <= k <= n, got k={k} n={n}")


def wilson_interval(k: int, n: int, z: float = DEFAULT_Z
                    ) -> Tuple[float, float]:
    """Wilson score interval for ``k`` successes in ``n`` trials.

    Returns ``(lo, hi)``; an empty campaign (``n == 0``) yields the
    vacuous ``(0.0, 1.0)``.  Out-of-range counts (``k > n``, negatives,
    non-finite values) raise :class:`ValueError`.
    """
    _check_counts(k, n)
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def composed_interval(
    weights: Sequence[float],
    ks: Sequence[int],
    ns: Sequence[int],
    z: float = DEFAULT_Z,
) -> Tuple[float, float, float]:
    """Interval for a weighted sum of independent binomial proportions.

    ``weights[i]`` scales section ``i``'s rate ``ks[i]/ns[i]`` in the
    composed estimate ``p = sum(w_i * p_i)``; the variance is
    ``sum(w_i^2 * p_i (1 - p_i) / n_i)``.  Returns ``(p, lo, hi)``.
    Sections with ``n_i == 0`` contribute their weight's full range to
    the interval (maximum binomial variance at p = 1/2) rather than
    false certainty.  Invalid counts (``k > n`` and friends) and
    negative or non-finite weights raise :class:`ValueError` — before
    this check a ``k > n`` stratum silently produced a CI with a
    negative variance term.
    """
    if not (len(weights) == len(ks) == len(ns)):
        raise ValueError("weights/ks/ns length mismatch")
    p = 0.0
    var = 0.0
    for w, k, n in zip(weights, ks, ns):
        if not math.isfinite(w) or w < 0:
            raise ValueError(
                f"weights must be finite and >= 0, got {w!r}")
        _check_counts(k, n)
        if n > 0:
            pi = k / n
            p += w * pi
            var += w * w * pi * (1 - pi) / n
        else:
            p += w * 0.5
            var += w * w * 0.25
    half = z * math.sqrt(var)
    return (p, max(0.0, p - half), min(1.0, p + half))


#: summary rate name -> the outcomes it counts; statically pruned
#: draws are benign by construction, so pruned estimates stay
#: bit-identical to unpruned ones
_SUMMARY_RATES = (
    ("sdc", (Outcome.SDC,)),
    ("due", (Outcome.DUE,)),
    ("detected", (Outcome.DETECTED,)),
    ("benign", (Outcome.BENIGN, Outcome.PRUNE_BENIGN)),
)


def composed_summary(
    weights: Sequence[float],
    counts: Sequence[Mapping[Outcome, int]],
    ns: Sequence[int],
    z: float = DEFAULT_Z,
) -> Dict[str, object]:
    """Composed rates of per-stratum (or per-section) outcome
    ``counts`` over ``ns`` draws: ``sdc``, ``due``, ``detected`` and
    ``benign`` with their ``*_ci`` intervals from
    :func:`composed_interval`, plus the ``pruned`` draw total."""
    out: Dict[str, object] = {}
    for name, outcomes in _SUMMARY_RATES:
        ks = [sum(c.get(o, 0) for o in outcomes) for c in counts]
        p, lo, hi = composed_interval(weights, ks, ns, z)
        out[name] = p
        out[f"{name}_ci"] = (lo, hi)
    out["pruned"] = sum(c.get(Outcome.PRUNE_BENIGN, 0) for c in counts)
    return out


def neyman_allocation(
    weights: Sequence[float],
    sds: Sequence[float],
    budget: int,
    minimum: int = 0,
) -> List[int]:
    """Split ``budget`` samples across strata proportionally to
    ``weights[h] * sds[h]`` (Neyman allocation: the variance-minimising
    split for ``p = sum(w_h p_h)`` when stratum ``h`` has per-sample
    standard deviation ``sds[h]``), with a per-stratum floor.

    ``minimum`` guards against the pilot's zero-variance trap: a
    stratum whose pilot saw no SDCs has an *estimated* sd of 0 but a
    true sd that may not be, so it still receives ``minimum`` samples
    (never more than its proportional peers would allow the budget to
    cover).  Largest-remainder rounding makes the result sum exactly
    to ``max(budget, strata * minimum)``.  Degenerate inputs — negative
    weights or sds, NaN, a negative budget, mismatched lengths — raise
    :class:`ValueError`.
    """
    if len(weights) != len(sds):
        raise ValueError("weights/sds length mismatch")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if minimum < 0:
        raise ValueError(f"minimum must be >= 0, got {minimum}")
    for v in list(weights) + list(sds):
        if not math.isfinite(v) or v < 0:
            raise ValueError(
                f"weights and sds must be finite and >= 0, got {v!r}")
    h = len(weights)
    if h == 0:
        return []
    budget = max(budget, h * minimum)
    scores = [w * s for w, s in zip(weights, sds)]
    total = sum(scores)
    if total <= 0:
        # nothing carries variance: spread the floor, give any excess
        # proportionally to weight (all-equal when weights are, too)
        scores = [max(w, 0.0) for w in weights]
        total = sum(scores)
        if total <= 0:
            scores = [1.0] * h
            total = float(h)
    spread = budget - h * minimum
    quotas = [minimum + spread * s / total for s in scores]
    alloc = [int(q) for q in quotas]
    remainders = sorted(
        range(h), key=lambda i: (quotas[i] - alloc[i], -i), reverse=True)
    short = budget - sum(alloc)
    for i in remainders[:short]:
        alloc[i] += 1
    return alloc
