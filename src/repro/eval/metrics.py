"""Makespan statistics and improvement ratios.

The paper reports *makespan improvement over a baseline*: the ratio
``makespan(baseline) / makespan(READYS)`` — "the larger the bars above 1, the
better READYS performs w.r.t. competitors" (Fig. 3 caption).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class SummaryStats:
    """Mean/std/extremes of a sample of makespans."""

    mean: float
    std: float
    minimum: float
    maximum: float
    count: int


def summarize(values: Sequence[float]) -> SummaryStats:
    """Summary statistics of a non-empty sample."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return SummaryStats(
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        count=int(arr.size),
    )


def improvement_over(
    baseline_makespans: Sequence[float], method_makespans: Sequence[float]
) -> float:
    """Mean-makespan ratio baseline/method (>1 means the method is better)."""
    base = np.asarray(list(baseline_makespans), dtype=np.float64)
    meth = np.asarray(list(method_makespans), dtype=np.float64)
    if base.size == 0 or meth.size == 0:
        raise ValueError("samples must be non-empty")
    if (meth <= 0).any() or (base <= 0).any():
        raise ValueError("makespans must be positive")
    return float(base.mean() / meth.mean())


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.99
) -> Tuple[float, float, float]:
    """(mean, lower, upper) Student-t confidence interval.

    Matches the 99% CI of the paper's inference-time plot (Fig. 7).  With a
    single sample the interval collapses to the point estimate.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot build a CI from an empty sample")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, mean, mean
    # scipy.stats costs about a second to import and only this needs it
    from scipy import stats

    sem = stats.sem(arr)
    half = float(sem * stats.t.ppf((1.0 + confidence) / 2.0, arr.size - 1))
    return mean, mean - half, mean + half
