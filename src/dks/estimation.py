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
from collections.abc import Iterator
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
    "select_bandwidths",
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
    if eval_lo < 0:
        raise ValueError("evaluation range must lie in the non-negative integers")
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


# Largest (sample, bandwidth, target, distinct value) block that one pass of
# the CV evaluator builds.  A batch keeps the h-independent terms of its
# grid for all of its passes, up to three arrays of the grid's size
# (binomial), and its scratch holds up to three more, so a larger block
# holds more memory for fewer passes.  A sample whose grid exceeds it for a
# single bandwidth runs alone, one bandwidth per pass, so its peak memory
# stays that of one evaluation.
_CV_BATCH_CELLS = 1 << 14

# The first CV term's range is extended in steps of _TAIL_STEP rows while its
# last summand is above _CV_TAIL_EPS; a batch leaves room for _TAIL_ROWS.
_TAIL_STEP = 16
_TAIL_ROWS = 4 * _TAIL_STEP
_CV_TAIL_EPS = 1e-12

# Golden-section steps after the two initial probes of a selection.
_REFINE_ITERATIONS = 40

# Largest target the first CV term may reach.  The dense (target x distinct
# value) grids grow with it, so samples with values near it are refused.
_CV_MAX_TARGET = 100_000


class _CvEvaluator:
    """CV(h) of a batch of samples under one kernel, at any bandwidths.

    Every pass evaluates every sample of the batch, at J bandwidths each: a
    grid pass at a chunk of the grid shared by all of them, a golden-section
    step at one bandwidth of each.  The samples are checked once, and the
    h-independent kernel terms are built once per span, so each bandwidth
    pays only its h-dependent arithmetic, written into scratch arrays that
    the evaluator owns: a pass on a built span allocates no grid-sized array.

    A pass builds one grid for all of the samples, on the targets
    0..span-1, padded with points off the kernel's support to the most
    distinct values.  Each sample is reduced on its own slices of it, by the
    matrix-vector products that it would get alone, so its scores depend
    neither on the other samples, nor on the span, nor on how its
    bandwidths are split into passes.
    """

    def __init__(self, samples, kernel: KernelSpec):
        self.samples = list(samples)
        if any(sample.n < 2 for sample in self.samples):
            raise ValueError("cross-validation needs at least two observations")
        self.kernel = kernel
        self.us = [sample.distinct_values for sample in self.samples]
        self.cs = [sample.value_counts for sample in self.samples]
        self.rows = [default_eval_hi(sample) + 1 for sample in self.samples]
        # each sample's points, then points off every kernel's support at every target
        self.points = np.full((len(self.samples), max(us.size for us in self.us)), -1.0 - (kernel.arm or 0))
        for b, us in enumerate(self.us):
            self.points[b, : us.size] = us
        self.span = max(self.rows)
        self.top = max(self.span + _TAIL_ROWS, _CV_BATCH_CELLS // self.points.size)
        self._terms: _GridTerms | None = None
        self._layout: _Layout | None = None
        self._scratch = _Scratch()
        self._tails: list[_GridTerms | None] = [None] * len(self.samples)

    def _grid(self, hs: np.ndarray) -> np.ndarray:
        # K_{x,h} on the targets x = 0..span-1 of every sample, padded, as
        # (samples, bandwidths, x, points)
        if self._terms is None:
            self._terms = _GridTerms(self.kernel, np.arange(self.span), self.points)
            self._terms.scratch = self._scratch
        return self._terms.at(hs)

    # The span starts at the longest first range, past default_eval_hi, and
    # grows by _TAIL_STEP rows, up to top, whenever a first term's summand is
    # above _CV_TAIL_EPS at the last row that it holds; the diffuse families
    # have mass well beyond the largest observation.  top is the batch's room,
    # _TAIL_ROWS past its longest first range, or more while one bandwidth of
    # every sample fits _CV_BATCH_CELLS.  A first term that runs past it goes
    # on in grids of _TAIL_ROWS rows of its own sample, so a batch's grid stays
    # within its room, and a grid past _CV_BATCH_CELLS within one evaluation.
    # Every observed value is a target, so the rows us of a bandwidth's grid
    # are the pair grid K_{us,h}(us).  Each bandwidth is reduced on 2-d slices
    # of its sample's exact shape: one matrix-vector product over its first
    # range and one over the whole _TAIL_STEP-row blocks past it, which gives
    # each row the bits of its own block.  A product over zero-padded rows or
    # columns would change the low bits, so none is run.

    def scores(self, hs: np.ndarray) -> list[list[float]]:
        # Every sample at every bandwidth of hs.  The first pass holds one
        # bandwidth: the poisson, binomial and negbin kernels fall with h at
        # every observed value below x + h, so on an ascending grid it settles
        # the span.  The others hold as many as fit in _CV_BATCH_CELLS.
        for h in hs.tolist():
            validate_bandwidth(self.kernel, h)
        out: list[list[float]] = [[] for _ in self.samples]
        start = 0
        while start < hs.size:
            per_pass = max(1, _CV_BATCH_CELLS // (len(self.samples) * self.span * self.points.shape[1]))
            chunk = hs[start : start + (per_pass if start else 1)]
            if (scores := self._pass(np.tile(chunk, (len(self.samples), 1)))) is not None:
                for row, sample_scores in zip(out, scores):
                    row += sample_scores
                start += chunk.size
        return out

    def step(self, hs) -> list[float]:
        # One bandwidth per sample, all in one pass
        for h in hs:
            validate_bandwidth(self.kernel, float(h))
        while (scores := self._pass(np.array(hs, dtype=np.float64)[:, None])) is None:
            pass
        return [score for (score,) in scores]

    def _pass(self, hs: np.ndarray) -> list[list[float]] | None:
        # hs holds one row of J bandwidths per sample.  Item q is bandwidth
        # q % J of sample q // J, and sums[q, :ends[q]] are its summands.
        # Returns None once the span has grown, for the pass to run again.
        J = hs.shape[1]
        if self._layout is not None and self._layout.grids.shape[1] != J:
            self._layout = None  # its views would keep the scratch's old buffers alive as it grows
        grids = self._grid(hs)
        if self._layout is None or self._layout.grids is not grids:
            self._layout = _Layout(self, grids)
        layout = self._layout
        for cs, products in layout.products:
            for grid, out in products:
                np.matmul(grid, cs, out=out)
        layout.sums /= layout.n
        sums = layout.summands
        firsts = []
        for q, (end, limit) in enumerate(layout.items):
            vals = sums[q, :limit]
            while vals[end - 1] > _CV_TAIL_EPS:
                if end - 1 > _CV_MAX_TARGET:
                    self._refuse(q // J)
                if end == vals.size:
                    if self.span < self.top:
                        # the pass runs again on _TAIL_STEP more rows, with terms and
                        # scratch built afresh, so that the old ones are freed first
                        self.span = min(self.span + _TAIL_STEP, self.top)
                        self._terms, self._layout, self._scratch = None, None, _Scratch()
                        return None
                    vals = np.concatenate([vals, self._tail_sums(q // J, hs[q // J, q % J], end)])
                end += _TAIL_STEP
            firsts.append(vals[:end])
        # every index is a row of grids, so mode="wrap" copies the same cells
        # as the default, which would gather through a fresh buffer
        grids.reshape(-1, grids.shape[-1]).take(layout.index, axis=0, out=layout.pairs, mode="wrap")
        out = []
        for b, (cs, pair_grids, diagonals, n2) in enumerate(layout.pair_terms):
            scores = []
            for vals, row, diagonal in zip(firsts[b * J : (b + 1) * J], cs @ pair_grids, diagonals):
                pair_sum = float(row.dot(cs) - cs.dot(diagonal))
                scores.append(float(vals.dot(vals)) - 2.0 * pair_sum / n2)
            out.append(scores)
        return out

    def _tail_sums(self, b: int, h: float, start: int) -> np.ndarray:
        # The summands of sample b at h on the _TAIL_ROWS targets from start,
        # past top, by one product over whole _TAIL_STEP-row blocks.  The terms
        # are kept for the next pass, whose first such range starts there too.
        terms = self._tails[b]
        if terms is None or terms.X[0, 0] != start:
            terms = self._tails[b] = _GridTerms(self.kernel, np.arange(start, start + _TAIL_ROWS), self.us[b])
        return terms.at(np.array([h]))[0] @ self.cs[b] / self.samples[b].n

    def _refuse(self, b: int):
        raise RuntimeError(
            f"cross-validation sum failed to truncate: the first term needs targets past {_CV_MAX_TARGET}, "
            f"and the sample's largest value is {self.samples[b].max_value}"
        )


class _Layout:
    """The exact-shape views that every pass of one grid shape reduces.

    A pass at J bandwidths per sample gets its grid and pair grids from the
    evaluator's scratch, the same arrays for every pass of that shape until
    the span or the scratch grows, and writes its summands into ``sums``.
    Each sample's slices of them are made once, here: its first range, and
    every whole _TAIL_STEP-row block past it that the grid holds.
    """

    __slots__ = ("grids", "pairs", "sums", "summands", "n", "index", "items", "products", "pair_terms")

    def __init__(self, evaluator: _CvEvaluator, grids: np.ndarray):
        blocks, J, R, cols = grids.shape
        self.grids, self.pairs = grids, evaluator._scratch.get("pairs", (blocks, J, cols, cols))
        self.sums = np.empty((blocks, J, R))
        self.summands = self.sums.reshape(blocks * J, R)
        self.n = np.array([sample.n for sample in evaluator.samples], dtype=np.float64)[:, None, None]
        # the rows of the pair grids: each sample's points, and row 0 for its padding
        points = np.maximum(evaluator.points[:, None, :], 0.0).astype(np.int64)
        self.index = (np.arange(blocks * J) * R).reshape(blocks, J, 1) + points
        # each item's first range and the end of its last whole block
        self.items, self.products, self.pair_terms = [], [], []
        for b, (rows, cs, sample) in enumerate(zip(evaluator.rows, evaluator.cs, evaluator.samples)):
            k, n = cs.size, sample.n
            limit = R - (R - rows) % _TAIL_STEP
            self.items += [(rows, limit)] * J
            products = [(grids[b, :, :rows, :k], self.sums[b, :, :rows])]
            if limit > rows:
                products.append((grids[b, :, rows:limit, :k], self.sums[b, :, rows:limit]))
            self.products.append((cs, products))
            pair_grids = self.pairs[b, :, :k, :k]
            self.pair_terms.append((cs, pair_grids, pair_grids.diagonal(axis1=1, axis2=2), n * (n - 1.0)))


def cv_score(sample: Sample, kernel: KernelSpec, h):
    """Leave-one-out cross-validation score CV(h) at a scalar ``h``, or an
    array of CV(h) at every bandwidth of a 1-d ``h``.

    The pair sum runs over ordered pairs of distinct observations, grouped
    through the value -> count map.  Requires n >= 2.  The kernel grids are
    built in passes of up to 2^14 (bandwidth, target, distinct value) cells,
    or of one bandwidth where a single one exceeds that, and entry i of an
    array equals the scalar call at ``h[i]`` bit for bit: a scalar is the
    array of one bandwidth.
    """
    hs = np.asarray(h, dtype=np.float64)
    if hs.ndim > 1:
        raise ValueError(f"bandwidths must be a scalar or a 1-d array, got shape {hs.shape}")
    scores = np.array(_CvEvaluator([sample], kernel).scores(hs.reshape(-1))[0])
    return float(scores[0]) if hs.ndim == 0 else scores


def _batches(samples):
    # Runs of consecutive samples whose step grid fits in _CV_BATCH_CELLS with
    # room for _TAIL_ROWS rows past the longest first range; a wider sample is
    # a batch of its own.
    batch: list[Sample] = []
    span = cols = 0
    for sample in samples:
        s_span, s_cols = default_eval_hi(sample) + 1 + _TAIL_ROWS, sample.distinct_values.size
        if batch and (len(batch) + 1) * max(span, s_span) * max(cols, s_cols) > _CV_BATCH_CELLS:
            yield batch
            batch, span, cols = [], 0, 0
        batch.append(sample)
        span, cols = max(span, s_span), max(cols, s_cols)
    if batch:
        yield batch


def _golden_section(a: float, b: float):
    # The golden-section refinement on [a, b] in log h: yields each probe and
    # is sent CV at it.
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = yield c
    fd = yield d
    for _ in range(_REFINE_ITERATIONS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = yield d


def _curves(evaluator: _CvEvaluator, hs: np.ndarray) -> np.ndarray:
    # The batch's grid pass, then the golden-section searches of all of its
    # samples in lockstep, one evaluator step per probe.  Returns each
    # sample's curve as a row of bandwidths and a row of scores, in the order
    # of evaluation, as a (2, samples, evaluations) array.
    G = hs.size
    curves = np.empty((2, len(evaluator.samples), G + 2 + _REFINE_ITERATIONS))
    h_at, cv_at = curves
    h_at[:, :G] = hs
    cv_at[:, :G] = evaluator.scores(hs)
    searches = []
    for scores in cv_at[:, :G]:
        i = int(np.argmin(scores))
        searches.append(_golden_section(math.log(hs[max(i - 1, 0)]), math.log(hs[min(i + 1, len(hs) - 1)])))
    ts = [next(search) for search in searches]
    for k in range(G, h_at.shape[1]):
        probes = [math.exp(t) for t in ts]
        scores = evaluator.step(probes)
        h_at[:, k], cv_at[:, k] = probes, scores
        if k + 1 < h_at.shape[1]:
            ts = [search.send(score) for search, score in zip(searches, scores)]
    return curves


def select_bandwidths(
    samples,
    kernel: KernelSpec,
    config: SearchConfig | None = None,
) -> Iterator[BandwidthSelection]:
    """``select_bandwidth`` on each sample of a list, yielded in the list's
    order.

    The samples are selected in lockstep, in batches whose step grids fit in
    2^14 cells: one pass evaluates a chunk of the grid, or a golden-section
    step, of every selection in the batch.  Each selection equals
    ``select_bandwidth`` on its sample alone, bit for bit.  A batch is
    selected when the first of its selections is asked for, so a caller
    that keeps only the bandwidths holds the curves of one batch at a time.
    """
    cfg = config if config is not None else default_search_config(kernel.family)
    validate_bandwidth(kernel, cfg.h_max)
    hs = np.geomspace(cfg.h_min, cfg.h_max, cfg.grid_points)
    for batch in _batches(samples):
        for h_row, cv_row in zip(*_curves(_CvEvaluator(batch, kernel), hs)):
            curve = list(zip(h_row.tolist(), cv_row.tolist()))
            best_h, _ = min(curve, key=lambda t: (t[1], t[0]))
            yield BandwidthSelection(float(best_h), sorted(curve))


def select_bandwidth(
    sample: Sample,
    kernel: KernelSpec,
    config: SearchConfig | None = None,
) -> BandwidthSelection:
    """Minimise CV(h): coarse log-spaced scan (evaluated in batches), then
    golden-section refinement inside the bracket around the grid minimum.
    Every evaluation goes through one CV evaluator, which computes the
    h-independent kernel terms once per selection; this is the batch of one
    of ``select_bandwidths``.

    Returns the best bandwidth over every evaluated point; exact ties go to
    the smaller h.
    """
    return next(select_bandwidths([sample], kernel, config))
