# risk.py
# Population-level risk of the raw smoothed estimator against a known
# reference p.m.f. f.  Everything here is exact (up to tail truncation):
# no sampling is involved.
#
# With modal mass m(x) = K_{x,h}(x), the pointwise decompositions are
#
#   bias(x) = f(x) (m(x) - 1) + Q(x),   Q(x) = sum_{y != x} f(y) K_{x,h}(y)
#   var(x)  = f(x) m(x)^2 / n - f(x)^2 / n + R(x)
#
# where Q collects the mass the kernel borrows from neighbours and R is the
# matching variance remainder.  Summing bias^2 + var over x gives the MISE;
# dropping the Q and R contributions leaves its leading term (AMISE).

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .kernels import (_TAIL_SCAN_LIMIT, KernelSpec, _tail_index, kernel_mean, kernel_support, kernel_variance,
                      pmf_grid, poisson)

__all__ = [
    "TruePmf",
    "PoissonPmf",
    "TabulatedPmf",
    "RiskBreakdown",
    "expected_estimate",
    "exact_bias",
    "bias_off_target",
    "exact_variance",
    "variance_remainder",
    "exact_mise",
    "amise",
    "frequency_mise",
    "bias_expansion",
    "expected_normalization",
]


class TruePmf:
    """Reference distribution on the non-negative integers."""

    def pmf(self, x):
        raise NotImplementedError

    def tail_cutoff(self, eps: float = 1e-12) -> int:
        """Smallest X with P(Y > X) <= eps."""
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError

    def sum_squared(self) -> float:
        xs = np.arange(0, self.tail_cutoff(1e-16) + 1)
        p = self.pmf(xs)
        return float(np.dot(p, p))


@dataclass(frozen=True)
class PoissonPmf(TruePmf):
    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")

    def pmf(self, x):
        x = np.asarray(x, dtype=np.float64)
        xc = np.maximum(x, 0.0)
        out = np.exp(xlogy(xc, self.mu) - self.mu - gammaln(xc + 1.0))
        result = np.where((x >= 0) & (x == np.floor(x)), out, 0.0)
        return float(result) if result.ndim == 0 else result

    def tail_cutoff(self, eps: float = 1e-12) -> int:
        # Poisson(mu) is the poisson kernel at target 0 with bandwidth mu.
        try:
            return _tail_index(poisson(), 0, self.mu, eps)[0]
        except RuntimeError:  # the scan's limit, which the scan reports for the kernel
            raise RuntimeError(f"the truth {self.label()} keeps more than {eps!r} of its mass past the tail scan "
                               f"limit of {_TAIL_SCAN_LIMIT}") from None

    def label(self) -> str:
        return f"poisson(mu={self.mu:g})"


class TabulatedPmf(TruePmf):
    """P.m.f. given by a table of probabilities on 0..len(values)-1."""

    def __init__(self, values):
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if np.any(vals < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(vals.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {vals.sum()!r}")
        self.values = vals

    def pmf(self, x):
        x = np.asarray(x)
        idx = np.clip(x, 0, len(self.values) - 1).astype(int)
        out = np.where(
            (x >= 0) & (x < len(self.values)) & (x == np.floor(x)),
            self.values[idx],
            0.0,
        )
        return float(out) if out.ndim == 0 else out

    def tail_cutoff(self, eps: float = 1e-12) -> int:
        tail = np.concatenate([np.cumsum(self.values[::-1])[::-1][1:], [0.0]])
        idx = np.nonzero(tail <= eps)[0]
        return int(idx[0]) if idx.size else len(self.values) - 1

    def label(self) -> str:
        return f"tabulated[0..{len(self.values) - 1}]"


@dataclass
class RiskBreakdown:
    """Per-target risk pieces plus their totals over the integration range."""

    x_values: np.ndarray
    bias: np.ndarray
    variance: np.ndarray
    bias_off_target: np.ndarray
    variance_remainder: np.ndarray
    integrated_squared_bias: float
    integrated_variance: float
    mise: float
    amise: float


def _weights(kernel: KernelSpec, h: float, x: int, tail_eps: float):
    sup = kernel_support(kernel, x, h, tail_eps)
    ys = np.arange(sup.lo, sup.truncation_hi + 1)
    return ys, pmf_grid(kernel, [x], h, ys)[0]


def expected_estimate(kernel: KernelSpec, h: float, f: TruePmf, x: int, tail_eps: float = 1e-12) -> float:
    """Mean of the raw estimate at x: sum_y f(y) K_{x,h}(y)."""
    ys, w = _weights(kernel, h, x, tail_eps)
    return float(np.dot(f.pmf(ys), w))


def exact_bias(kernel: KernelSpec, h: float, f: TruePmf, x: int, tail_eps: float = 1e-12) -> float:
    return expected_estimate(kernel, h, f, x, tail_eps) - float(f.pmf(x))


def bias_off_target(kernel: KernelSpec, h: float, f: TruePmf, x: int, tail_eps: float = 1e-12) -> float:
    """Mass the kernel borrows from off-target points: sum_{y != x} f(y) K_{x,h}(y)."""
    ys, w = _weights(kernel, h, x, tail_eps)
    keep = ys != x
    return float(np.dot(f.pmf(ys[keep]), w[keep]))


def exact_variance(kernel: KernelSpec, h: float, f: TruePmf, n: int, x: int, tail_eps: float = 1e-12) -> float:
    """Variance of the raw estimate at x for a sample of size n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ys, w = _weights(kernel, h, x, tail_eps)
    fy = f.pmf(ys)
    m1 = float(np.dot(fy, w))
    m2 = float(np.dot(fy, w * w))
    return (m2 - m1 * m1) / n


def variance_remainder(kernel: KernelSpec, h: float, f: TruePmf, n: int, x: int, tail_eps: float = 1e-12) -> float:
    """Off-target variance term R such that
    var(x) = f(x) m(x)^2 / n - f(x)^2 / n + R."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ys, w = _weights(kernel, h, x, tail_eps)
    fy = f.pmf(ys)
    fx = float(f.pmf(x))
    keep = ys != x
    lead = float(np.dot(fy[keep], w[keep] ** 2)) / n
    bracket = fx + float(np.dot(fy - fx, w))
    return lead - bracket * bracket / n + fx * fx / n


def _risk_grids(kernel: KernelSpec, h: float, f: TruePmf, x_max: int, tail_eps: float):
    xs = np.arange(0, x_max + 1)
    hi = kernel_support(kernel, x_max, h, tail_eps).truncation_hi
    ys = np.arange(0, max(hi, x_max) + 1)
    G = pmf_grid(kernel, xs, h, ys)
    fy = f.pmf(ys)
    return xs, ys, G, fy


def exact_mise(
    kernel: KernelSpec,
    h: float,
    f: TruePmf,
    n: int,
    tail_eps: float = 1e-12,
    integration_tail: float = 1e-12,
) -> RiskBreakdown:
    """Exact MISE of the raw estimator, decomposed per target.

    Integration runs over [0, x_max] where the reference tail beyond x_max
    is at most ``integration_tail``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x_max = f.tail_cutoff(integration_tail)
    xs, ys, G, fy = _risk_grids(kernel, h, f, x_max, tail_eps)
    fx = fy[: x_max + 1]  # xs is the prefix 0..x_max of ys
    Ef = G @ fy
    m2 = (G * G) @ fy
    modal = G[np.arange(len(xs)), xs]
    bias = Ef - fx
    var = (m2 - Ef * Ef) / n
    q = Ef - fx * modal
    r = var - (fx * modal * modal - fx * fx) / n
    isb = float(np.sum(bias * bias))
    iv = float(np.sum(var))
    amise_val = float(np.sum(fx * fx * (modal - 1.0) ** 2) + np.sum(fx * (modal * modal - fx)) / n)
    return RiskBreakdown(
        x_values=xs,
        bias=bias,
        variance=var,
        bias_off_target=q,
        variance_remainder=r,
        integrated_squared_bias=isb,
        integrated_variance=iv,
        mise=isb + iv,
        amise=amise_val,
    )


def amise(
    kernel: KernelSpec,
    h: float,
    f: TruePmf,
    n: int,
    integration_tail: float = 1e-12,
) -> float:
    """Leading term of the MISE:
    sum f^2 (m - 1)^2 + (1/n) sum f (m^2 - f)."""
    return exact_mise(kernel, h, f, n, integration_tail=integration_tail).amise


def frequency_mise(f: TruePmf, n: int) -> float:
    """MISE of the frequency estimator: (1 - sum f^2) / n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1.0 - f.sum_squared()) / n


def bias_expansion(kernel: KernelSpec, h: float, f: TruePmf, x: int) -> float:
    """Small-h two-term bias approximation.

    f at the non-integer kernel mean is interpolated linearly between the
    neighbouring integers; the curvature term uses the central second
    difference f(x+1) - 2 f(x) + f(x-1) with f(-1) = 0.
    """
    m = kernel_mean(kernel, x, h)
    i = int(np.floor(m))
    t = m - i
    f_mean = (1.0 - t) * float(f.pmf(i)) + t * float(f.pmf(i + 1))
    f2 = float(f.pmf(x + 1)) - 2.0 * float(f.pmf(x)) + float(f.pmf(x - 1))
    return f_mean - float(f.pmf(x)) + 0.5 * kernel_variance(kernel, x, h) * f2


def expected_normalization(
    kernel: KernelSpec,
    h: float,
    f: TruePmf,
    eval_lo: int = 0,
    eval_hi: int | None = None,
    tail_eps: float = 1e-12,
) -> float:
    """Expected total mass of the raw estimate over [eval_lo, eval_hi]:
    1 + the accumulated bias over the range."""
    if eval_hi is None:
        eval_hi = f.tail_cutoff(1e-12)
    xs, ys, G, fy = _risk_grids(kernel, h, f, eval_hi, tail_eps)
    Ef = G @ fy
    fx = fy[: eval_hi + 1]  # xs is the prefix 0..eval_hi of ys
    keep = xs >= eval_lo
    return 1.0 + float(np.sum(Ef[keep] - fx[keep]))
