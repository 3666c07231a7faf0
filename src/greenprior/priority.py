"""Per-building greening priority scores and objective weighting schemes.

The default score is the plain average of the six normalized indicators.
Three data-driven alternatives (entropy, coefficient of variation, CRITIC)
are provided so reports can show how much the choice of weights moves the
ranking. All weighting functions take a buildings-by-indicators matrix with
values in [0, 1] and return weights that are non-negative and sum to one.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geocore import ComputationError

WEIGHT_SCHEMES = ("equal", "entropy", "cv", "critic")

# Floor applied before taking logarithms in the entropy method, so exact
# zeros in the normalized indicators do not blow up ln(p).
_ENTROPY_FLOOR = 1e-9

# Below this total divergence the matrix is treated as uninformative and the
# scheme falls back to equal weights.
_DEGENERATE_TOTAL = 1e-12


@dataclass(frozen=True)
class PriorityScore:
    building_id: str
    priority: float
    rank: int
    percentile: float

    def __post_init__(self):
        if not 0.0 <= self.priority <= 1.0:
            raise ValueError(f"priority must lie in [0, 1], got {self.priority!r}")
        if self.rank < 1:
            raise ValueError("rank is 1-based")
        if not 0.0 <= self.percentile <= 100.0:
            raise ValueError("percentile must lie in [0, 100]")


def _as_matrix(matrix):
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValueError("expected a matrix with at least 2 rows and 2 columns")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite values")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("matrix values must lie in [0, 1]")
    return arr


def entropy_weights(matrix):
    """Entropy weighting: columns with more dispersion carry more weight.

    Column shares p_ij = v_ij / sum_i(v_ij) feed the normalized Shannon
    entropy e_j; weights are the normalized divergences (1 - e_j). Constant
    columns (including all-zero ones) have entropy 1 and receive no weight;
    if every column is constant the result falls back to equal weights.
    """
    arr = np.maximum(_as_matrix(matrix), _ENTROPY_FLOOR)
    n, m = arr.shape
    shares = arr / arr.sum(axis=0, keepdims=True)
    # logs by CPython's libm: numpy's log takes other bits at other SIMD
    # dispatch levels
    logs = np.array([math.log(p) for p in shares.ravel().tolist()]).reshape(shares.shape)
    entropy = -np.sum(shares * logs, axis=0) / math.log(n)
    divergence = np.clip(1.0 - entropy, 0.0, None)
    total = divergence.sum()
    if total <= _DEGENERATE_TOTAL:
        return np.full(m, 1.0 / m)
    return divergence / total


def cv_weights(matrix):
    """Coefficient-of-variation weighting: w_j proportional to std_j / mean_j.

    Sample standard deviation (ddof=1). A column whose mean is zero falls
    back to the bare standard deviation with a warning; all-constant input
    falls back to equal weights.
    """
    arr = _as_matrix(matrix)
    m = arr.shape[1]
    means = arr.mean(axis=0)
    stds = _column_stds(arr)
    zero_mean = np.abs(means) <= _DEGENERATE_TOTAL
    if np.any(zero_mean & (stds > 0)):
        warnings.warn("zero-mean column in cv_weights, using std alone",
                      RuntimeWarning, stacklevel=2)
    cv = np.where(zero_mean, stds, stds / np.where(zero_mean, 1.0, means))
    total = cv.sum()
    if total <= _DEGENERATE_TOTAL:
        return np.full(m, 1.0 / m)
    return cv / total


def _column_stds(arr):
    # An exactly constant column must come out as std 0, not the ~1e-16 that
    # plain np.std leaves behind when the mean is not representable.
    constant = arr.max(axis=0) == arr.min(axis=0)
    return np.where(constant, 0.0, arr.std(axis=0, ddof=1))


def _correlation_matrix(arr, stds):
    n, m = arr.shape
    columns = (arr - arr.mean(axis=0, keepdims=True)).T
    # sums of products correctly rounded, not in a BLAS's blocking order
    cov = np.array([[math.fsum((u * v).tolist()) for v in columns] for u in columns]) / (n - 1)
    corr = np.zeros((m, m))
    varying = stds > 0
    denom = np.outer(stds, stds)
    both = np.outer(varying, varying)
    corr[both] = (cov[both] / denom[both])
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, np.where(varying, 1.0, 0.0))
    return corr


def critic_weights(matrix):
    """CRITIC weighting: dispersion times conflict with the other columns.

    C_j = std_j * sum_k (1 - r_jk), with Pearson r between columns and the
    correlation against a constant column defined as zero. Constant columns
    get zero weight; an all-constant matrix falls back to equal weights.
    """
    arr = _as_matrix(matrix)
    m = arr.shape[1]
    stds = _column_stds(arr)
    corr = _correlation_matrix(arr, stds)
    conflict = np.sum(1.0 - corr, axis=1)
    scores = stds * conflict
    total = scores.sum()
    if total <= _DEGENERATE_TOTAL:
        return np.full(m, 1.0 / m)
    return scores / total


def compute_weights(matrix, scheme):
    """Dispatch to one of the WEIGHT_SCHEMES; 'equal' ignores the matrix.

    Raises ComputationError if the weights come out negative or do not sum
    to one.
    """
    if scheme == "equal":
        m = np.asarray(matrix).shape[1]
        weights = np.full(m, 1.0 / m)
    elif scheme == "entropy":
        weights = entropy_weights(matrix)
    elif scheme == "cv":
        weights = cv_weights(matrix)
    elif scheme == "critic":
        weights = critic_weights(matrix)
    else:
        raise ValueError(f"unknown weighting scheme {scheme!r}")
    total = float(weights.sum())
    if np.any(weights < -1e-12) or not abs(total - 1.0) <= 1e-9:
        raise ComputationError(f"{scheme} weights must be non-negative and sum to 1, "
                               f"got {weights.tolist()}")
    return weights


def rank_buildings(priorities):
    """Order buildings by descending priority into PriorityScore records.

    Ties are broken by building id so reruns produce identical tables.
    Percentile is 100 * (n - rank) / (n - 1); a single building gets 100.
    """
    if not priorities:
        raise ValueError("no priorities to rank")
    items = sorted(priorities.items(), key=lambda kv: (-kv[1], kv[0]))
    n = len(items)
    scores = []
    for rank, (bid, p) in enumerate(items, start=1):
        p = min(1.0, max(0.0, float(p)))
        pct = 100.0 if n == 1 else 100.0 * (n - rank) / (n - 1)
        scores.append(PriorityScore(bid, p, rank, pct))
    return scores


@dataclass(frozen=True)
class PrioritySummary:
    count: int
    percent_above_half: float
    mean_priority: float
    max_priority: float


def priority_summary(priorities):
    """Distribution summary used in reports (percent above 0.5, mean, max)
    of a list of priorities, in Python floats."""
    if not priorities:
        raise ValueError("no scores to summarize")
    n = len(priorities)
    return PrioritySummary(
        count=n,
        percent_above_half=100.0 * sum(1 for p in priorities if p > 0.5) / n,
        mean_priority=sum(priorities) / n,
        max_priority=max(priorities),
    )
