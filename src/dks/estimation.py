# estimation.py
# Nonparametric p.m.f. estimation on the non-negative integers.
#
# The smoothed estimate at x averages the kernel mass each observation
# receives from a kernel targeted at x:
#
#   f~(x) = (1/n) * sum_i K_{x,h}(X_i)
#
# With the dirac kernel this is the plain frequency estimate.  For the other
# families f~ does not sum to 1; its total over the evaluation range is kept
# as the normalization constant so the estimate can be rescaled into a
# proper p.m.f.
#
# Bandwidths are selected by minimising the leave-one-out cross-validation
# score
#
#   CV(h) = sum_x f~(x)^2 - 2/(n(n-1)) * sum_i sum_{j != i} K_{X_i,h}(X_j)
#
# over a log-spaced grid followed by golden-section refinement.

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelFamily, KernelSpec, _GridTerms, _Scratch, pmf_grid, validate_bandwidth

__all__ = [
    "Sample",
    "PmfEstimate",
    "SearchConfig",
    "BandwidthSelection",
    "default_eval_hi",
    "default_search_config",
    "frequency_estimate",
    "kernel_estimate_raw",
    "normalize_estimate",
    "cv_score",
    "select_bandwidth",
]


class Sample:
    """Multiset of non-negative integer observations.

    Stored as a value -> count map; ``n`` is the total number of
    observations.
    """

    __slots__ = ("counts", "n", "_values", "_weights")

    def __init__(self, counts):
        clean: dict[int, int] = {}
        for value, count in counts.items():
            v = int(value)
            c = int(count)
            if v != value or c != count:
                raise ValueError("sample values and counts must be integers")
            if v < 0:
                raise ValueError(f"sample values must be >= 0, got {v}")
            if c < 0:
                raise ValueError(f"counts must be >= 0, got {c} for value {v}")
            if c > 0:
                clean[v] = clean.get(v, 0) + c
        if not clean:
            raise ValueError("sample must contain at least one observation")
        self.counts = dict(sorted(clean.items()))
        self.n = sum(self.counts.values())
        self._values = np.array(list(self.counts), dtype=np.int64)
        self._weights = np.array(list(self.counts.values()), dtype=np.float64)

    @classmethod
    def from_values(cls, values) -> "Sample":
        return cls(Counter(int(v) for v in values))

    @classmethod
    def from_counts(cls, mapping) -> "Sample":
        return cls(mapping)

    @property
    def min_value(self) -> int:
        return int(self._values[0])

    @property
    def max_value(self) -> int:
        return int(self._values[-1])

    @property
    def distinct_values(self) -> np.ndarray:
        return self._values

    @property
    def value_counts(self) -> np.ndarray:
        return self._weights

    def __eq__(self, other) -> bool:
        return isinstance(other, Sample) and self.counts == other.counts

    def __repr__(self) -> str:
        return f"Sample(n={self.n}, counts={self.counts})"


@dataclass
class PmfEstimate:
    """Estimated mass on the integer range [eval_lo, eval_hi].

    ``normalization_constant`` is the total raw mass over the range; for a
    normalized estimate it records the constant that was divided out.
    """

    eval_lo: int
    eval_hi: int
    values: np.ndarray
    normalization_constant: float
    normalized: bool

    def grid(self) -> np.ndarray:
        return np.arange(self.eval_lo, self.eval_hi + 1)

    def total(self) -> float:
        return float(self.values.sum())


# Largest coarse grid of a bandwidth search; each point is one CV evaluation.
_MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class SearchConfig:
    """Bandwidth search domain and the size of its coarse log grid."""

    h_min: float
    h_max: float
    grid_points: int = 64

    def __post_init__(self):
        if not 0.0 < self.h_min < self.h_max:
            raise ValueError("need 0 < h_min < h_max")
        if self.grid_points < 16:
            raise ValueError("grid_points must be >= 16")
        if self.grid_points > _MAX_GRID_POINTS:
            raise ValueError(f"grid_points must be <= {_MAX_GRID_POINTS}, got {self.grid_points}")


@dataclass
class BandwidthSelection:
    """Selected bandwidth and every (h, CV(h)) pair evaluated on the way."""

    h_cv: float
    cv_curve: list[tuple[float, float]] = field(default_factory=list)


def default_eval_hi(sample: Sample) -> int:
    """Default upper evaluation bound, wide enough to capture kernel mass
    leaking beyond the largest observation."""
    m = sample.max_value
    return int(m + math.ceil(3.0 * math.sqrt(m + 1.0)) + 2)


def default_search_config(family: KernelFamily) -> SearchConfig:
    """Family-specific CV search domains covering all plausible bandwidths."""
    if family is KernelFamily.BINOMIAL:
        return SearchConfig(1e-4, 1.0)
    if family in (KernelFamily.POISSON, KernelFamily.NEGBIN):
        return SearchConfig(1e-4, 5.0)
    if family is KernelFamily.TRIANGULAR:
        return SearchConfig(1e-4, 10.0)
    raise ValueError("the dirac kernel has no bandwidth to select")


def frequency_estimate(sample: Sample, eval_lo: int = 0, eval_hi: int | None = None) -> PmfEstimate:
    """Empirical proportions count(x)/n on [eval_lo, eval_hi]."""
    if eval_hi is None:
        eval_hi = sample.max_value
    if eval_lo > sample.min_value or eval_hi < sample.max_value:
        raise ValueError(
            f"evaluation range [{eval_lo}, {eval_hi}] must cover the observed "
            f"values [{sample.min_value}, {sample.max_value}]"
        )
    values = np.zeros(eval_hi - eval_lo + 1)
    for v, c in sample.counts.items():
        values[v - eval_lo] = c / sample.n
    return PmfEstimate(eval_lo, eval_hi, values, 1.0, True)


def kernel_estimate_raw(
    sample: Sample,
    kernel: KernelSpec,
    h: float,
    eval_lo: int = 0,
    eval_hi: int | None = None,
) -> PmfEstimate:
    """Unnormalized smoothed estimate on [eval_lo, eval_hi].

    The normalization constant is the sum of the values over the range, so
    the range should be wide enough for that sum to be stable (the default
    upper bound takes care of this).
    """
    if eval_hi is None:
        eval_hi = default_eval_hi(sample)
    if eval_lo < 0:
        raise ValueError("evaluation range must lie in the non-negative integers")
    if eval_hi < eval_lo:
        raise ValueError("eval_hi must be >= eval_lo")
    xs = np.arange(eval_lo, eval_hi + 1)
    grid = pmf_grid(kernel, xs, h, sample.distinct_values)
    values = grid @ sample.value_counts / sample.n
    return PmfEstimate(eval_lo, eval_hi, values, float(values.sum()), False)


def normalize_estimate(raw: PmfEstimate) -> PmfEstimate:
    """Rescale a raw estimate into a proper p.m.f. over its range.

    The constant that was divided out stays on the result for reporting.
    """
    if raw.normalized:
        raise ValueError("estimate is already normalized")
    total = raw.total()
    if total <= 0.0:
        raise ValueError("cannot normalize an estimate with zero total mass")
    return PmfEstimate(raw.eval_lo, raw.eval_hi, raw.values / total, total, True)


# Largest (bandwidths x targets x distinct values) block that one batched
# pass of the CV evaluator builds.  A sample whose grid exceeds it for a
# single bandwidth runs one bandwidth per pass, so its peak memory stays
# that of cv_score.
_CV_GRID_CELLS = 1 << 16

# The first CV term's range is extended in steps of _TAIL_STEP rows while its
# last summand is above _CV_TAIL_EPS; one kernel grid of _TAIL_ROWS rows
# serves four steps.
_TAIL_STEP = 16
_TAIL_ROWS = 4 * _TAIL_STEP
_CV_TAIL_EPS = 1e-12

# Golden-section steps after the two initial probes of a selection.
_REFINE_ITERATIONS = 40

# Largest target the first CV term may reach.  The dense (target x distinct
# value) grids grow with it, so samples with values near it are refused.
_CV_MAX_TARGET = 100_000


class _CvEvaluator:
    """CV(h) of one sample under one kernel, at any number of bandwidths.

    The sample is checked once, and the h-independent kernel terms of each
    target range (0..default_eval_hi, each tail extension, and the first
    range with the first tail) are built on first use and kept for the
    evaluator's lifetime, so each bandwidth pays only its h-dependent
    arithmetic.  That arithmetic writes into two sets of scratch arrays that
    the evaluator owns, one for the first range and its pair grid and one for
    the tails, so once a range's terms are built, evaluating it allocates no
    grid-sized array.
    """

    def __init__(self, sample: Sample, kernel: KernelSpec):
        if sample.n < 2:
            raise ValueError("cross-validation needs at least two observations")
        self.sample = sample
        self.kernel = kernel
        self.us, self.cs, self.n = sample.distinct_values, sample.value_counts, sample.n
        self.rows = default_eval_hi(sample) + 1
        self._terms: dict[tuple[int, int], _GridTerms] = {}
        self._first, self._tail = _Scratch(), _Scratch()
        self._extended = False

    def _grid(self, lo: int, size: int, hs: np.ndarray) -> np.ndarray:
        # K_{x,h}(us) on the targets x = lo..lo+size-1, as (bandwidths, x, us);
        # the first range's grid outlives the tails built while it is reduced
        terms = self._terms.get((lo, size))
        if terms is None:
            terms = self._terms[lo, size] = _GridTerms(self.kernel, np.arange(lo, lo + size), self.us)
            terms.scratch = self._first if lo == 0 else self._tail
        return terms.at(hs)

    # The first term's range grows past default_eval_hi, one step at a time,
    # until the summand at its end is at most _CV_TAIL_EPS; this matters for the
    # diffuse families whose mass extends well beyond the largest
    # observation.  Every observed value is a target, so the rows us of a
    # bandwidth's grid are the pair grid K_{us,h}(us).  Each bandwidth is
    # reduced on its own 2-d slices, one matrix-vector product for the first
    # range and one per 64-row tail (a stacked matmul runs one product per
    # contiguous slice), so its score does not depend on which bandwidths
    # share its grids, nor on whether its first tail was fused.

    def score(self, h: float) -> float:
        # Golden-section steps are adjacent in h, so a step after an extending
        # one builds its first range and first tail as one grid.
        validate_bandwidth(self.kernel, float(h))
        return self._pass(np.array([h], dtype=np.float64), fused=self._extended)[0]

    def scores(self, hs: np.ndarray) -> list[float]:
        # Up to _CV_GRID_CELLS (bandwidth, target, distinct value) cells per
        # pass; each pass's grids are freed before the next pass builds its
        # own.
        for h in hs.tolist():
            validate_bandwidth(self.kernel, h)
        per_pass = max(1, _CV_GRID_CELLS // (max(self.rows, _TAIL_ROWS) * self.us.size))
        scores: list[float] = []
        for start in range(0, hs.size, per_pass):
            scores += self._pass(hs[start : start + per_pass])
        return scores

    def _pass(self, hs: np.ndarray, fused: bool = False) -> list[float]:
        # One stacked grid for all of hs on the first range (and the first
        # tail if fused), then one tail grid per extension for the bandwidths
        # still extending.  sums[i, :ends[i]] are bandwidth i's summands.
        cs, n, rows = self.cs, self.n, self.rows
        grids = self._grid(0, rows + _TAIL_ROWS if fused else rows, hs)
        sums = np.empty(grids.shape[:2])
        np.matmul(grids[:, :rows], cs, out=sums[:, :rows])
        if fused:
            np.matmul(grids[:, rows:], cs, out=sums[:, rows:])
        sums /= n
        ends, extending = [rows] * hs.size, range(hs.size)
        while extending:
            width = sums.shape[1]
            for i in extending:
                while sums[i, ends[i] - 1] > _CV_TAIL_EPS and ends[i] < width:
                    if ends[i] - 1 > _CV_MAX_TARGET:
                        raise RuntimeError(
                            f"cross-validation sum failed to truncate: the first term needs targets past "
                            f"{_CV_MAX_TARGET}, and the sample's largest value is {self.sample.max_value}"
                        )
                    ends[i] += _TAIL_STEP
            extending = [i for i in extending if sums[i, ends[i] - 1] > _CV_TAIL_EPS]
            if extending:
                sums = np.concatenate([sums, np.zeros((hs.size, _TAIL_ROWS))], axis=1)
                sums[extending, width:] = self._grid(width, _TAIL_ROWS, hs[extending]) @ cs / n
        self._extended = max(ends) > rows
        # every index is a row of grids, so mode="wrap" copies the same cells
        # as the default, which would gather through a fresh buffer
        pair_grids = grids.take(self.us, axis=1, out=self._first.get("pairs", (hs.size, self.us.size, self.us.size)),
                                mode="wrap")
        pair_rows = cs @ pair_grids
        diagonals = pair_grids.diagonal(axis1=1, axis2=2)
        scores = []
        for vals, end, row, diagonal in zip(sums, ends, pair_rows, diagonals):
            vals = vals[:end]
            pair_sum = float(row.dot(cs) - cs.dot(diagonal))
            scores.append(float(vals.dot(vals)) - 2.0 * pair_sum / (n * (n - 1.0)))
        return scores


def cv_score(sample: Sample, kernel: KernelSpec, h):
    """Leave-one-out cross-validation score CV(h) at a scalar ``h``, or an
    array of CV(h) at every bandwidth of a 1-d ``h``.

    The pair sum runs over ordered pairs of distinct observations, grouped
    through the value -> count map.  Requires n >= 2.  An array's kernel
    grids are built in passes of up to 2^16 (bandwidth, target, distinct
    value) cells, and its entry i equals the scalar call at ``h[i]`` bit for
    bit.
    """
    evaluator = _CvEvaluator(sample, kernel)
    if np.ndim(h) == 0:
        return evaluator.score(h)
    hs = np.asarray(h, dtype=np.float64)
    if hs.ndim != 1:
        raise ValueError(f"bandwidths must be a scalar or a 1-d array, got shape {hs.shape}")
    return np.array(evaluator.scores(hs))


def select_bandwidth(
    sample: Sample,
    kernel: KernelSpec,
    config: SearchConfig | None = None,
) -> BandwidthSelection:
    """Minimise CV(h): coarse log-spaced scan (evaluated in batches), then
    golden-section refinement inside the bracket around the grid minimum.
    Every evaluation goes through one CV evaluator, which computes the
    h-independent kernel terms once per selection.

    Returns the best bandwidth over every evaluated point; exact ties go to
    the smaller h.
    """
    cfg = config if config is not None else default_search_config(kernel.family)
    validate_bandwidth(kernel, cfg.h_max)
    evaluator = _CvEvaluator(sample, kernel)
    hs = np.geomspace(cfg.h_min, cfg.h_max, cfg.grid_points)
    scores = evaluator.scores(hs)
    evaluated = list(zip(hs.tolist(), scores))
    i = int(np.argmin(scores))

    a = math.log(hs[max(i - 1, 0)])
    b = math.log(hs[min(i + 1, len(hs) - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def probe(t: float) -> float:
        score = evaluator.score(math.exp(t))
        evaluated.append((math.exp(t), score))
        return score

    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = probe(c), probe(d)
    for _ in range(_REFINE_ITERATIONS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = probe(d)

    best_h, _ = min(evaluated, key=lambda t: (t[1], t[0]))
    return BandwidthSelection(float(best_h), sorted(evaluated))
