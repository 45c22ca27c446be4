# kernels.py
# Discrete associated kernels for count-data smoothing.
#
# A kernel is the p.m.f. of an integer random variable indexed by a target
# x >= 0 and a bandwidth h, concentrated near x:
#
#   dirac        point mass at x; h fixed at 0
#   poisson      Poisson(x + h) on {0, 1, ...}; h > 0
#   binomial     Binomial(x + 1, (x + h)/(x + 1)) on {0, ..., x + 1}; h in (0, 1]
#   negbin       NegBin(x + 1, (x + 1)/(2x + 1 + h)) on {0, 1, ...}; h > 0
#   triangular   symmetric triangular with arm p on {x - p, ..., x + p}; h > 0
#
# The three "standard" families (poisson, binomial, negbin) share mean x + h
# but keep a non-degenerate shape as h -> 0; the triangular kernel collapses
# onto its target.  All mass functions are evaluated through log-gamma so
# targets up to a few thousand stay overflow-free.  At each bandwidth a grid
# takes one logarithm per target row, and a triangular grid fills only its band.

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaln, nbdtrc, pdtrc, xlog1py, xlogy

__all__ = [
    "KernelFamily",
    "KernelSpec",
    "SupportRange",
    "dirac",
    "binomial",
    "poisson",
    "negbin",
    "triangular",
    "validate_bandwidth",
    "kernel_pmf",
    "pmf_grid",
    "kernel_support",
    "modal_probability",
    "modal_limit",
    "kernel_mean",
    "kernel_variance",
    "modal_limit_ratio_poisson_binomial",
    "modal_limit_ratio_negbin_poisson",
    "triangular_small_h_coeffs",
]


class KernelFamily(str, Enum):
    DIRAC = "dirac"
    BINOMIAL = "binomial"
    POISSON = "poisson"
    NEGBIN = "negbin"
    TRIANGULAR = "triangular"


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its fixed shape parameters.

    ``arm`` is the half-width p of the triangular kernel and must be given
    for (and only for) the triangular family.
    """

    family: KernelFamily
    arm: int | None = None

    def __post_init__(self):
        if self.family is KernelFamily.TRIANGULAR:
            if self.arm is None or self.arm < 1:
                raise ValueError("triangular kernel needs an integer arm >= 1")
        elif self.arm is not None:
            raise ValueError(f"{self.family.value} kernel takes no arm parameter")

    @property
    def label(self) -> str:
        if self.family is KernelFamily.TRIANGULAR:
            return f"triangular(p={self.arm})"
        return self.family.value


def dirac() -> KernelSpec:
    return KernelSpec(KernelFamily.DIRAC)


def binomial() -> KernelSpec:
    return KernelSpec(KernelFamily.BINOMIAL)


def poisson() -> KernelSpec:
    return KernelSpec(KernelFamily.POISSON)


def negbin() -> KernelSpec:
    return KernelSpec(KernelFamily.NEGBIN)


def triangular(arm: int = 1) -> KernelSpec:
    return KernelSpec(KernelFamily.TRIANGULAR, arm=arm)


@dataclass(frozen=True)
class SupportRange:
    """Support of one kernel, with the effective bound used for summation.

    ``hi`` is None for families supported on all non-negative integers; the
    kernel mass outside [lo, truncation_hi] is at most ``tail_mass_bound``.
    """

    lo: int
    hi: int | None
    truncation_hi: int
    tail_mass_bound: float


def validate_bandwidth(kernel: KernelSpec, h: float) -> None:
    """Raise ValueError unless h is a valid bandwidth for the family."""
    if not math.isfinite(h):
        raise ValueError(f"bandwidth must be finite, got {h!r}")
    fam = kernel.family
    if fam is KernelFamily.DIRAC:
        if h != 0.0:
            raise ValueError("dirac kernel has no bandwidth; h must be 0")
    elif fam is KernelFamily.BINOMIAL:
        if not 0.0 < h <= 1.0:
            raise ValueError(f"binomial kernel needs h in (0, 1], got {h!r}")
    else:
        if h <= 0.0:
            raise ValueError(f"{fam.value} kernel needs h > 0, got {h!r}")


def _validate_targets(xs: np.ndarray) -> None:
    # x is a non-negative integer exactly when floor(|x|) == x (NaN fails too)
    if (np.floor(np.abs(xs)) != xs).any():
        raise ValueError("kernel targets must be non-negative integers")


def _validate_tail_eps(tail_eps: float) -> None:
    if not 0.0 < tail_eps < 1.0:
        raise ValueError(f"tail_eps must be in (0, 1), got {tail_eps!r}")


# Largest (targets x points) grid, 128 MiB of float64.  Every dense kernel grid
# (the CV terms, pmf_grid and the risk grids) is refused past it by _GridTerms.
_MAX_GRID_CELLS = 1 << 24

# np.exp gives exactly +0.0 for every argument below -745.1332, so a binomial
# grid writes +0.0 into the cells whose log mass is below this cut instead of
# evaluating them: an underflowing exp costs about 18 times a finite one.
_EXP_UNDERFLOW_CUT = -746.0
# Smallest binomial grid, in cells per bandwidth, that takes the masked exp.
# The share of cells below the cut grows with the grid's width: the mask costs
# more than it saves below about 7,000 cells and wins at every bandwidth from
# about 12,000.
_MASKED_EXP_CELLS = 1 << 13


class _Scratch:
    """Arrays that one caller reuses across grid evaluations.

    Each key names one flat buffer, and a request gets a view of its leading
    cells in the shape asked for, so one buffer serves every grid up to the
    largest it has held.  A grid returned into a _Scratch is overwritten by
    the next evaluation into it.
    """

    __slots__ = ("_flat", "_views")

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}
        self._views: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}

    def get(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        view = self._views.get((key, shape))
        if view is None:
            size = math.prod(shape)
            flat = self._flat.get(key)
            if flat is None or flat.size < size:
                flat = self._flat[key] = np.empty(size, dtype)
                self._views = {k: v for k, v in self._views.items() if k[0] != key}  # views of the old buffer
            view = self._views[key, shape] = flat[:size].reshape(shape)
        return view


class _Fresh:
    """The scratch of a one-shot grid: every request is a fresh array, so the
    grid is the caller's."""

    @staticmethod
    def get(key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        return np.empty(shape, dtype)


class _GridTerms:
    """One kernel's grid on fixed targets (rows) and points (columns).

    The constructor is the one place that dispatches on the family: it takes
    the family's h-independent terms once and binds them to its h-dependent
    arithmetic.  In the standard families these log terms come first in the
    log mass, which is summed left to right, so adding the h-dependent terms
    to them gives the grid bit for bit.  They are -inf off the family's
    support, whose cells therefore get exactly 0.  Callers that evaluate one
    grid at many bandwidths build this once and call ``at`` for each.

    The grid and the family's work arrays come from ``scratch``.  A caller
    that evaluates many grids sets it to a _Scratch that it owns, and may
    share between terms; the next evaluation into it overwrites the grid.

    A 2-d ``ys`` holds one row of points per sample of a batch, on the same
    targets.  Its terms keep a leading sample axis, and every cell is the
    one that sample's own terms give, by the same formula.
    """

    __slots__ = ("X", "scratch", "_shape", "_at")

    def __init__(self, kernel: KernelSpec, xs, ys):
        xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        ys = np.atleast_1d(np.asarray(ys, dtype=np.float64))
        _validate_targets(xs)
        rows, cols = self._shape = xs.size, ys.shape[-1]
        if rows * cols > _MAX_GRID_CELLS:
            raise RuntimeError(f"the {kernel.label} kernel grid of {rows} targets x {cols} points is past the "
                               f"dense-grid limit of {_MAX_GRID_CELLS} cells")
        X = self.X = xs[:, None]
        Y = ys[None, :] if ys.ndim == 1 else ys[:, None, None, :]  # a batch's bandwidth axis follows its sample axis
        self.scratch = _Fresh
        # Each family's arithmetic takes the bandwidths as a (..., bandwidths, 1, 1)
        # array, a _Scratch and the grid's shape.  Every grid-sized step writes
        # into one of the scratch's buffers (the ufuncs' third argument), in the
        # order of the per-cell formula.  The standard families take one
        # logarithm per target row, by the function that xlogy(y, .) calls per
        # cell (finite for h > 0).
        fam = kernel.family
        if fam is KernelFamily.DIRAC:
            grid = (X == Y).astype(np.float64)

            def dirac_at(h, scratch, shape):
                out = scratch.get("grid", shape)
                out[...] = grid
                return out

            self._at = dirac_at
        elif fam is KernelFamily.TRIANGULAR:
            # per sample: the cells where the kernel is not 0, and their distances
            d = np.abs(Y - X).reshape(-1, rows * cols)
            bands = []
            for row in d:
                band = np.flatnonzero(row <= kernel.arm)
                bands.append((band, row[band]))
            k = np.arange(1.0, kernel.arm + 1.0)

            def triangular_at(h, scratch, shape):
                # One bandwidth at a time: a scalar exponent keeps every power
                # identical to the per-cell formula; an array exponent does not.
                out = scratch.get("grid", shape)
                out.fill(0.0)
                flat = out.reshape(h.size, d.shape[1])
                per_sample = h.size // len(bands)
                for i, v in enumerate(h.ravel().tolist()):
                    band, d_band = bands[i // per_sample]
                    flat[i, band] = ((k.size + 1.0) ** v - d_band**v) / _triangular_normalizer(k, v)
                return out

            self._at = triangular_at
        elif fam is KernelFamily.POISSON:
            Yc = np.maximum(Y, 0.0)
            log_factorial = np.where(Y >= 0, gammaln(Yc + 1.0), np.inf)  # subtracted

            def poisson_at(h, scratch, shape):
                # Yc * log(lam) - lam - log(y!)
                lam = X + h
                out = np.multiply(Yc, xlogy(1.0, lam), scratch.get("grid", shape))
                np.subtract(out, lam, out)
                np.subtract(out, log_factorial, out)
                return np.exp(out, out)

            self._at = poisson_at
        elif fam is KernelFamily.BINOMIAL:
            m = X + 1.0
            Yc = np.minimum(np.maximum(Y, 0.0), m)
            rest = m - Yc
            coef = gammaln(m + 1.0) - gammaln(Yc + 1.0) - gammaln(rest + 1.0)
            log_coef = np.where((Y >= 0) & (Y <= m), coef, -np.inf)
            masked = rows * cols >= _MASKED_EXP_CELLS  # cells per bandwidth of one sample

            def binomial_at(h, scratch, shape):
                # log_coef + Yc * log(p) + rest * log(1 - p)
                p = (X + h) / m
                out = np.multiply(Yc, xlogy(1.0, p), scratch.get("grid", shape))
                np.add(log_coef, out, out)
                np.add(out, _times_log(rest, xlog1py(1.0, -p), scratch.get("work", shape)), out)
                if not masked:
                    return np.exp(out, out)
                # ~(logs < cut), so that a NaN still reaches exp; the cells left
                # out keep log masses below the cut, which the maximum makes +0.0
                live = np.less(out, _EXP_UNDERFLOW_CUT, scratch.get("live", shape, np.bool_))
                np.exp(out, out=out, where=np.logical_not(live, live))
                return np.maximum(out, 0.0, out=out)

            self._at = binomial_at
        else:
            r, s = X + 1.0, 2.0 * X + 1.0  # r and 2x + 1 of _negbin_params do not depend on h
            Yc = np.maximum(Y, 0.0)
            log_coef = np.where(Y >= 0, gammaln(Yc + r) - gammaln(Yc + 1.0) - gammaln(r), -np.inf)

            def negbin_at(h, scratch, shape):
                # log_coef + r * log(q) + Yc * log(1 - q)
                q = r / (s + h)
                out = np.add(log_coef, r * np.log(q), scratch.get("grid", shape))
                np.add(out, _times_log(Yc, xlogy(1.0, 1.0 - q), scratch.get("work", shape)), out)
                return np.exp(out, out)

            self._at = negbin_at

    def at(self, hs: np.ndarray) -> np.ndarray:
        """The grid at validated bandwidths, as (bandwidths, rows, columns): a 1-d ``hs``, or for a
        batch's terms one row of bandwidths per sample, giving (samples, bandwidths, rows, columns)."""
        return self._at(hs[..., None, None], self.scratch, hs.shape + self._shape)


def _times_log(count: np.ndarray, log_row: np.ndarray, out: np.ndarray) -> np.ndarray:
    # count * log per cell into out, but xlogy's 0, not NaN, for a zero count
    # on a row whose log is -inf (binomial p = 1, negbin q = 1)
    if log_row.flat[log_row.argmin()] > -np.inf:  # argmin stops at a NaN, as min would return it
        return np.multiply(count, log_row, out)
    with np.errstate(invalid="ignore"):
        np.multiply(count, log_row, out)
    np.copyto(out, 0.0, where=count == 0)
    return out


def pmf_grid(kernel: KernelSpec, xs, h: float, ys) -> np.ndarray:
    """Kernel mass K_{x,h}(y) on the grid targets-by-points, of shape (len(xs), len(ys)).

    Parameters
    ----------
    xs : array-like of non-negative integer targets (rows).
    h : one bandwidth, validated against the family.
    ys : array-like of integer evaluation points (columns); points outside
        the family's support get exactly 0.
    """
    validate_bandwidth(kernel, h)
    return _GridTerms(kernel, xs, ys).at(np.array([h], dtype=np.float64))[0]


def _negbin_params(x, h):
    # negative binomial: r = x + 1 successes with probability q, mean x + h
    r = x + 1.0
    return r, r / (2.0 * x + 1.0 + h)


def _triangular_normalizer(k: np.ndarray, h: float) -> float:
    # k = 1..arm, built once per grid or moment
    return (2 * k.size + 1) * (k.size + 1.0) ** h - 2.0 * (k**h).sum()


def kernel_pmf(kernel: KernelSpec, x: int, h: float, y: int) -> float:
    """Pr(K_{x,h} = y) for a single target and point."""
    return float(pmf_grid(kernel, [x], h, [y])[0, 0])


# Largest upper bound _tail_index scans to; the scan holds two arrays of this length.
_TAIL_SCAN_LIMIT = 1 << 24


@functools.lru_cache(maxsize=1024)
def _tail_index(kernel: KernelSpec, x: int, h: float, tail_eps: float) -> tuple[int, float]:
    # Smallest k with survival mass P(Y > k) <= tail_eps for a poisson or
    # negbin kernel, scanned downward from a generous starting bound.  Cached
    # because risk sweeps and studies repeat the same few survival scans.
    if kernel.family is KernelFamily.POISSON:
        survival, params = pdtrc, (x + h,)
    else:
        survival, params = nbdtrc, _negbin_params(x, h)
    mean, var = kernel_mean(kernel, x, h), kernel_variance(kernel, x, h)
    start = mean + 10.0 * math.sqrt(max(var, 1.0))  # inf where the variance overflows
    hi = int(math.ceil(start)) + 1 if start < _TAIL_SCAN_LIMIT else _TAIL_SCAN_LIMIT
    while survival(hi, *params) > tail_eps:
        if hi >= _TAIL_SCAN_LIMIT:
            raise RuntimeError(
                f"the {kernel.label} kernel at x = {x}, h = {h!r} keeps more than {tail_eps!r} of its mass "
                f"past the tail scan limit of {_TAIL_SCAN_LIMIT}"
            )
        hi = min(2 * hi + 8, _TAIL_SCAN_LIMIT)
    sf = survival(np.arange(0, hi + 1), *params)
    idx = int(np.argmax(sf <= tail_eps))
    return idx, float(sf[idx])


def kernel_support(kernel: KernelSpec, x: int, h: float, tail_eps: float = 1e-12) -> SupportRange:
    """Exact support bounds, with an effective upper bound for infinite ones.

    For the poisson and negbin families ``truncation_hi`` is the smallest
    integer whose upper-tail mass is at most ``tail_eps``.
    """
    validate_bandwidth(kernel, h)
    _validate_targets(np.asarray([x], dtype=float))
    _validate_tail_eps(tail_eps)
    fam = kernel.family
    if fam is KernelFamily.DIRAC:
        return SupportRange(x, x, x, 0.0)
    if fam is KernelFamily.BINOMIAL:
        return SupportRange(0, x + 1, x + 1, 0.0)
    if fam is KernelFamily.TRIANGULAR:
        p = kernel.arm
        return SupportRange(x - p, x + p, x + p, 0.0)
    hi, tail = _tail_index(kernel, x, h, tail_eps)
    return SupportRange(0, None, hi, tail)


def modal_probability(kernel: KernelSpec, x: int, h: float) -> float:
    """Mass the kernel places on its own target, Pr(K_{x,h} = x)."""
    return kernel_pmf(kernel, x, h, x)


def _log_poisson_limit(xf: float) -> float:
    return xlogy(xf, xf) - xf - gammaln(xf + 1.0)


def _log_negbin_limit(xf: float) -> float:
    return (
        gammaln(2.0 * xf + 1.0)
        - 2.0 * gammaln(xf + 1.0)
        + xlogy(xf, xf / (2.0 * xf + 1.0))
        + (xf + 1.0) * np.log((xf + 1.0) / (2.0 * xf + 1.0))
    )


def modal_limit(kernel: KernelSpec, x: int) -> float:
    """h -> 0 limit of the modal probability.

    The triangular and dirac kernels collapse onto the target (limit 1); the
    three standard families keep a limit below 1 for every x >= 1.
    """
    _validate_targets(np.asarray([x], dtype=float))
    fam = kernel.family
    xf = float(x)
    if fam in (KernelFamily.DIRAC, KernelFamily.TRIANGULAR):
        return 1.0
    if fam is KernelFamily.POISSON:
        return float(np.exp(_log_poisson_limit(xf)))
    if fam is KernelFamily.BINOMIAL:
        return float(np.exp(xlogy(xf, xf / (xf + 1.0))))
    return float(np.exp(_log_negbin_limit(xf)))


def kernel_mean(kernel: KernelSpec, x: int, h: float) -> float:
    """Closed-form kernel expectation: x for dirac/triangular, x + h otherwise."""
    validate_bandwidth(kernel, h)
    _validate_targets(np.asarray([x], dtype=float))
    if kernel.family in (KernelFamily.DIRAC, KernelFamily.TRIANGULAR):
        return float(x)
    return float(x + h)


def kernel_variance(kernel: KernelSpec, x: int, h: float) -> float:
    """Closed-form kernel variance."""
    validate_bandwidth(kernel, h)
    _validate_targets(np.asarray([x], dtype=float))
    fam = kernel.family
    xf = float(x)
    if fam is KernelFamily.DIRAC:
        return 0.0
    if fam is KernelFamily.POISSON:
        return xf + h
    if fam is KernelFamily.BINOMIAL:
        return (xf + h) * (1.0 - h) / (xf + 1.0)
    if fam is KernelFamily.NEGBIN:
        return (xf + h) * (2.0 * xf + 1.0 + h) / (xf + 1.0)
    p = kernel.arm
    k = np.arange(1.0, p + 1.0)
    return float(2.0 * np.sum(k**2 * ((p + 1.0) ** h - k**h)) / _triangular_normalizer(k, h))


def modal_limit_ratio_poisson_binomial(x: int) -> float:
    """Ratio of the poisson to binomial modal limits; 1 at x = 0, decreasing."""
    _validate_targets(np.asarray([x], dtype=float))
    xf = float(x)
    return float(np.exp(xlogy(xf, xf + 1.0) - xf - gammaln(xf + 1.0)))


def modal_limit_ratio_negbin_poisson(x: int) -> float:
    """Ratio of the negbin to poisson modal limits; 1 at x = 0, decreasing."""
    _validate_targets(np.asarray([x], dtype=float))
    xf = float(x)
    return float(np.exp(_log_negbin_limit(xf) - _log_poisson_limit(xf)))


def triangular_small_h_coeffs(arm: int) -> tuple[float, float]:
    """First-order coefficients of the triangular kernel as h -> 0.

    Returns (a, v) such that the modal probability is 1 - 2*h*a + O(h^2)
    and the variance is 2*h*v + O(h^2).
    """
    if arm < 1:
        raise ValueError("arm must be >= 1")
    k = np.arange(1.0, arm + 1.0)
    logs = np.log(k)
    a = arm * math.log(arm + 1.0) - float(np.sum(logs))
    v = (arm * (2.0 * arm**2 + 3.0 * arm + 1.0) / 6.0) * math.log(arm + 1.0) - float(
        np.sum(k**2 * logs)
    )
    return a, v
