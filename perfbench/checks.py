"""Independent checks of the program's outputs.

Everything here is recomputed apart from the ``dks`` package: kernel masses
come from ``scipy.stats`` (the triangular kernel from its defining weights),
samples from the documented Philox stream and a scipy inverse CDF, and the
risk of the frequency estimator from multinomial moments.  The only things
read from the program are its inputs (kernel specs, search domains, the
truth's parameter) and the outputs under test.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

# Slack for comparing two evaluations of the same formula that differ only
# in rounding (scipy versus log-gamma arithmetic).
REL_TOL = 1e-9
ABS_TOL = 1e-13


def close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    return abs(a - b) <= abs_tol + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# kernels, estimates, cross-validation


def kernel_matrix(kernel, xs, h, ys) -> np.ndarray:
    """K_{x,h}(y) on targets xs (rows) by points ys (columns).

    ``h`` may be an array of bandwidths; the result then gains a leading
    bandwidth axis.
    """
    X = np.asarray(xs, dtype=np.float64)[:, None]
    Y = np.asarray(ys, dtype=np.float64)[None, :]
    h = np.asarray(h, dtype=np.float64)[..., None, None]
    family = kernel.family.value
    if family == "dirac":
        return np.broadcast_to(X == Y, h.shape[:-2] + (X.shape[0], Y.shape[1])).astype(np.float64)
    if family == "poisson":
        return stats.poisson.pmf(Y, X + h)
    if family == "binomial":
        return stats.binom.pmf(Y, X + 1.0, (X + h) / (X + 1.0))
    if family == "negbin":
        return stats.nbinom.pmf(Y, X + 1.0, (X + 1.0) / (2.0 * X + 1.0 + h))
    if family == "triangular":
        p = kernel.arm
        d = np.abs(Y - X)
        weights = np.where(d <= p, (p + 1.0) ** h - d**h, 0.0)
        return weights / sum((p + 1.0) ** h - abs(k) ** h for k in range(-p, p + 1))
    raise ValueError(f"unknown kernel family {family!r}")


def eval_hi(max_value: int) -> int:
    """Documented default upper evaluation bound of an estimate."""
    return int(max_value + math.ceil(3.0 * math.sqrt(max_value + 1.0)) + 2)


def raw_estimate(values, counts, kernel, h: float, xs) -> np.ndarray:
    """(1/n) sum_i K_{x,h}(X_i) at each x in xs."""
    counts = np.asarray(counts, dtype=np.float64)
    return kernel_matrix(kernel, xs, h, values) @ counts / counts.sum()


def cv_scores(values, counts, kernel, hs) -> np.ndarray:
    """Leave-one-out CV(h) = sum_x f~(x)^2 - 2/(n(n-1)) sum_{i != j} K_{X_i,h}(X_j).

    The first sum runs far past the largest observation, where every kernel
    used here has negligible mass.
    """
    values = np.asarray(values)
    counts = np.asarray(counts, dtype=np.float64)
    hs = np.asarray(hs, dtype=np.float64)
    n = counts.sum()
    top = int(values.max())
    xs = np.arange(0, top + int(15.0 * math.sqrt(top + 1.0)) + 40)
    step = max(1, 1_000_000 // (len(xs) * len(values)))
    out = []
    for i in range(0, len(hs), step):
        chunk = hs[i : i + step]
        est = kernel_matrix(kernel, xs, chunk, values) @ counts / n
        pair = kernel_matrix(kernel, values, chunk, values)
        pair_sum = pair @ counts @ counts - np.diagonal(pair, axis1=1, axis2=2) @ counts
        out.append(np.sum(est * est, axis=1) - 2.0 * pair_sum / (n * (n - 1.0)))
    return np.concatenate(out)


def check_cv_minimum(values, counts, kernel, h_selected, domain, label: str) -> list[str]:
    """CV at the selected bandwidth must be no higher than at any point of the
    family's log search grid.  ``h_selected`` may be a bracket (lo, hi) around
    a printed bandwidth; then the lower CV of its ends is used."""
    hs = np.geomspace(domain.h_min, domain.h_max, domain.grid_points)
    grid = cv_scores(values, counts, kernel, hs)
    picked = np.atleast_1d(np.asarray(h_selected, dtype=np.float64))
    at_selected = float(cv_scores(values, counts, kernel, picked).min())
    best = float(grid.min())
    if at_selected > best + 1e-12 * abs(best) + 1e-15:
        i = int(np.argmin(grid))
        return [f"{label}: CV at selected h={picked.tolist()} is {at_selected!r}, "
                f"above the grid minimum {best!r} at h={hs[i]!r}"]
    return []


# ---------------------------------------------------------------------------
# Monte Carlo study (tables 2/3 protocol)


def draw_sample(seed: int, n: int, replicate: int, mu: float) -> np.ndarray:
    """The documented replicate stream: Philox keyed by (seed, n, replicate),
    n uniforms mapped through the Poisson(mu) inverse CDF."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(n, replicate))
    u = np.random.Generator(np.random.Philox(ss)).random(n)
    return stats.poisson.ppf(u, mu).astype(np.int64)


def truth_pmf(mu: float, xs) -> np.ndarray:
    return stats.poisson.pmf(np.asarray(xs), mu)


def dirac_ise_moments(mu: float, n: int) -> tuple[float, float]:
    """Mean and variance of the frequency estimator's ISE for n draws.

    With D = N - n f for multinomial counts N, ISE = |D|^2 / n^2.  Writing D
    as a sum of n centred one-hot vectors u_t gives
    E|D|^2 = n a2 and Var|D|^2 = n a4 - n a2^2 + 2 n (n - 1) |C|_F^2,
    with a2 = E|u|^2, a4 = E|u|^4 and C = diag(f) - f f^T.
    """
    f = truth_pmf(mu, np.arange(0, int(mu + 40.0 * math.sqrt(mu + 1.0)) + 40))
    s2 = float(f @ f)
    a2 = 1.0 - s2
    a4 = float(f @ (1.0 - 2.0 * f + s2) ** 2)
    frob = float(np.sum((np.diag(f) - np.outer(f, f)) ** 2))
    return a2 / n, (n * a4 - n * a2 * a2 + 2.0 * n * (n - 1.0) * frob) / n**4


# Replicates of every selecting study cell that also get the CV minimum check.
CV_REPLICATES = 2


class StudyChecker:
    """Checks one ``run_study`` report cell by cell.

    The first CV_REPLICATES replicates of every selecting cell also get the
    CV minimum check.  Dirac replicate ISEs are pooled across reports for one
    closed-form test at the end (see ``dirac_failures``).
    """

    def __init__(self):
        self.dirac: dict[int, list[float]] = {}

    def check(self, config, report) -> list[str]:
        failures = []
        mu = config.true_pmf.mu
        R = config.replicates
        if report.replicates != R or report.seed != config.seed:
            failures.append("report header does not match the config")
        for kernel in config.kernels:
            for n in config.sample_sizes:
                failures += self.check_cell(config, report.cell(kernel.label, n), kernel, n, mu, R)
        return failures

    def check_cell(self, config, cell, kernel, n, mu, R) -> list[str]:
        label = f"{cell.kernel} n={n} seed={config.seed}"
        failures = []
        hs = list(cell.h_values)
        if len(hs) != R:
            return [f"{label}: {len(hs)} bandwidths for {R} replicates"]
        dirac = kernel.family.value == "dirac"
        domain = None if dirac else config.search_for(kernel)
        for h in hs:
            if dirac and h != 0.0:
                failures.append(f"{label}: dirac h={h!r}")
            if not dirac and not domain.h_min <= h <= domain.h_max:
                failures.append(f"{label}: h={h!r} outside [{domain.h_min}, {domain.h_max}]")
        if failures:
            return failures

        samples = [np.unique(draw_sample(config.seed, n, r, mu), return_counts=True) for r in range(R)]
        width = max(max(eval_hi(int(values.max())) for values, _ in samples) + 1,
                    int(mu + 40.0 * math.sqrt(mu + 1.0)) + 40)
        f = truth_pmf(mu, np.arange(width))
        ests = np.zeros((R, width))
        for r, (h, (values, counts)) in enumerate(zip(hs, samples)):
            hi = eval_hi(int(values.max()))
            est = raw_estimate(values, counts, kernel, h, np.arange(hi + 1))
            if config.normalize:
                est = est / est.sum()
            ests[r, : hi + 1] = est
            if not dirac and r < CV_REPLICATES:
                failures += check_cv_minimum(values, counts, kernel, h, domain, f"{label} rep={r}")
        ises = np.sum((ests - f) ** 2, axis=1)
        mean_est = ests.mean(axis=0)
        ibias = float(np.sum((mean_est - f) ** 2))
        ivar = float(np.sum(np.mean(ests * ests, axis=0) - mean_est**2))
        if not close(float(ises.mean()), cell.mean_mise):
            failures.append(f"{label}: mean_mise {cell.mean_mise!r}, independent mean ISE {ises.mean()!r}")
        if not close(cell.mean_mise, cell.ibias + cell.ivar):
            failures.append(f"{label}: mean_mise {cell.mean_mise!r} != ibias + ivar {cell.ibias + cell.ivar!r}")
        if not (close(ibias, cell.ibias) and close(max(ivar, 0.0), cell.ivar)):
            failures.append(f"{label}: ibias/ivar {cell.ibias!r}/{cell.ivar!r}, independent {ibias!r}/{ivar!r}")
        if dirac:
            self.dirac.setdefault(n, []).extend(float(v) for v in ises)
        return failures

    def dirac_failures(self, mu: float) -> list[str]:
        """Pooled dirac replicates against the closed form (1 - sum f^2)/n.

        One z statistic over every size, with the exact standard error: the
        replicate ISE is right-skewed, so a 4-SE gate per cell at a few dozen
        replicates fires by chance about once in 2,000 cells, while the pooled
        statistic stays near its normal tail.
        """
        if not self.dirac:
            return []
        num = 0.0
        var = 0.0
        for n, ises in self.dirac.items():
            mean, v = dirac_ise_moments(mu, n)
            num += float(np.sum(np.asarray(ises) - mean))
            var += len(ises) * v
        z = num / math.sqrt(var)
        if abs(z) > 4.0:
            return [f"dirac cells: pooled mean ISE is {z:+.2f} standard errors from (1 - sum f^2)/n"]
        return []


# ---------------------------------------------------------------------------
# exact risk


def direct_risk(kernel, h: float, mu: float) -> tuple[float, float]:
    """(integrated squared bias, n * integrated variance) of the raw estimator
    by direct summation.

    Targets run over the documented integration range [0, X], X the smallest
    integer with P(Y > X) <= 1e-12 under the truth; kernel points run far
    enough that the truth's mass beyond them is negligible.
    """
    x_top = 0
    while stats.poisson.sf(x_top, mu) > 1e-12:
        x_top += 1
    xs = np.arange(0, x_top + 1)
    ys = np.arange(0, 3 * x_top + 60)
    K = kernel_matrix(kernel, xs, h, ys)
    fy = truth_pmf(mu, ys)
    mean = K @ fy
    second = (K * K) @ fy
    return float(np.sum((mean - fy[: len(xs)]) ** 2)), float(np.sum(second - mean * mean))


def check_risk_group(kernel, h: float, mu: float, calls, direct: bool) -> list[str]:
    """``calls`` maps n to (mise, isb, iv) for one (kernel, h, truth).

    Every call: mise = isb + iv, isb the same for every n, iv * n the same
    for every n; dirac: mise = (1 - sum f^2)/n.  With ``direct``, isb and
    iv also match the direct sum.
    """
    label = f"{kernel.label} h={h!r} mu={mu!r}"
    failures = []
    ns = sorted(calls)
    isb0 = calls[ns[0]][1]
    ivn0 = calls[ns[0]][2] * ns[0]
    for n in ns:
        mise, isb, iv = calls[n]
        if not close(mise, isb + iv, rel=1e-12, abs_tol=1e-16):
            failures.append(f"{label} n={n}: mise {mise!r} != isb + iv {isb + iv!r}")
        if not close(isb, isb0, rel=1e-12, abs_tol=1e-16):
            failures.append(f"{label} n={n}: isb {isb!r} differs from n={ns[0]} ({isb0!r})")
        if not close(iv * n, ivn0, rel=1e-12, abs_tol=1e-16):
            failures.append(f"{label} n={n}: iv*n {iv * n!r} differs from n={ns[0]} ({ivn0!r})")
    if kernel.family.value == "dirac":
        s2 = float(np.sum(truth_pmf(mu, np.arange(0, int(mu + 40.0 * math.sqrt(mu + 1.0)) + 40)) ** 2))
        for n in ns:
            if not close(calls[n][0], (1.0 - s2) / n):
                failures.append(f"{label} n={n}: dirac mise {calls[n][0]!r} != (1 - sum f^2)/n {(1.0 - s2) / n!r}")
    if direct:
        isb_d, ivn_d = direct_risk(kernel, h, mu)
        for n in ns:
            _, isb, iv = calls[n]
            if not (close(isb, isb_d) and close(iv, ivn_d / n)):
                failures.append(f"{label} n={n}: isb/iv {isb!r}/{iv!r}, direct sum {isb_d!r}/{ivn_d / n!r}")
    return failures


# ---------------------------------------------------------------------------
# CLI estimate output


def parse_estimate(stdout: str, csv_text: str) -> dict:
    """Header fields of ``dks estimate`` plus the columns of its CSV."""
    header = stdout.splitlines()[0]
    if not header.startswith("# "):
        raise ValueError(f"unexpected header line {header!r}")
    fields = dict(tok.split("=", 1) for tok in header[2:].split())
    lines = csv_text.strip().splitlines()
    cols = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    table = {c: [r[i] for r in rows] for i, c in enumerate(cols)}
    return {
        "h_text": fields["h"],
        "C": float(fields["C"]),
        "n": int(fields["n"]),
        "x": np.array([int(v) for v in table["x"]]),
        "raw": np.array([float(v) for v in table["raw"]]),
        "normalized": np.array([float(v) for v in table["normalized"]]),
    }


def printed_bracket(h_text: str, h_max: float) -> tuple[float, float, float]:
    """(lo, printed, hi): the interval of bandwidths that print as h_text at
    six significant digits, clipped to the family's largest bandwidth."""
    h = float(h_text)
    half = 0.5 * 10.0 ** (math.floor(math.log10(h)) - 5)
    return max(h - half, 0.0), h, min(h + half, h_max)


def check_estimate(out: dict, values, counts, kernel, h_max: float, label: str) -> list[str]:
    """Column sums, raw = normalized * C, and the raw column against an
    independent estimate within the rounding of the printed bandwidth."""
    failures = []
    x, raw, norm = out["x"], out["raw"], out["normalized"]
    if out["n"] != int(np.sum(counts)):
        failures.append(f"{label}: n={out['n']}, data has {int(np.sum(counts))}")
    if not np.array_equal(x, np.arange(0, eval_hi(int(np.max(values))) + 1)):
        failures.append(f"{label}: rows are not 0..{eval_hi(int(np.max(values)))}")
        return failures
    total = float(norm.sum())
    if abs(total - 1.0) > 1e-9:
        failures.append(f"{label}: normalized column sums to {total!r}")
    if np.any(np.abs(raw - norm * out["C"]) > 1e-10 * np.abs(raw) + 1e-300):
        failures.append(f"{label}: raw column is not normalized * C (C={out['C']!r})")
    if kernel.family.value == "dirac":
        lo = mid = hi = 0.0
    else:
        lo, mid, hi = printed_bracket(out["h_text"], h_max)
    ests = [raw_estimate(values, counts, kernel, h, x) for h in (lo, mid, hi)]
    spread = np.maximum(np.abs(ests[0] - ests[1]), np.abs(ests[2] - ests[1]))
    bad = np.abs(raw - ests[1]) > 1.5 * spread + REL_TOL * np.abs(ests[1]) + 1e-15
    if np.any(bad):
        i = int(np.argmax(bad))
        failures.append(f"{label}: raw[{x[i]}]={raw[i]!r}, independent estimate at h={out['h_text']} is {ests[1][i]!r}")
    return failures
