import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln, xlog1py, xlogy

from dks import kernels as K
from dks.estimation import default_search_config

B, P, NB, D = K.binomial(), K.poisson(), K.negbin(), K.dirac()
T1 = K.triangular(1)
STANDARD = [B, P, NB]


def numeric_moments(kernel, x, h, tail_eps=1e-14):
    """Oracle: first and second central moments by direct summation."""
    sup = K.kernel_support(kernel, x, h, tail_eps)
    ys = np.arange(sup.lo, sup.truncation_hi + 1)
    w = K.pmf_grid(kernel, [x], h, ys)[0]
    m1 = float(np.dot(ys, w))
    m2 = float(np.dot(ys.astype(float) ** 2, w))
    return m1, m2 - m1 * m1


class TestKernelSpec:
    def test_triangular_requires_arm(self):
        with pytest.raises(ValueError):
            K.KernelSpec(K.KernelFamily.TRIANGULAR)
        with pytest.raises(ValueError):
            K.KernelSpec(K.KernelFamily.TRIANGULAR, arm=0)

    def test_arm_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            K.KernelSpec(K.KernelFamily.POISSON, arm=2)

    def test_labels(self):
        assert K.triangular(2).label == "triangular(p=2)"
        assert B.label == "binomial"


class TestBandwidthValidation:
    @pytest.mark.parametrize("h", [-0.1, 0.0, 1.2])
    def test_binomial_domain(self, h):
        with pytest.raises(ValueError):
            K.kernel_pmf(B, 1, h, 1)

    @pytest.mark.parametrize("kernel", [P, NB, T1])
    def test_positive_required(self, kernel):
        with pytest.raises(ValueError):
            K.kernel_pmf(kernel, 1, 0.0, 1)

    def test_dirac_fixed_at_zero(self):
        assert K.kernel_pmf(D, 3, 0.0, 3) == 1.0
        with pytest.raises(ValueError):
            K.kernel_pmf(D, 3, 0.1, 3)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            K.kernel_pmf(P, -1, 0.1, 0)


class TestPmfValues:
    def test_dirac_identity(self):
        assert K.kernel_pmf(D, 3, 0.0, 3) == 1.0
        assert K.kernel_pmf(D, 3, 0.0, 2) == 0.0

    def test_binomial_single_trial(self):
        assert K.kernel_pmf(B, 0, 0.1, 0) == pytest.approx(0.9, abs=1e-15)
        assert K.kernel_pmf(B, 0, 0.1, 1) == pytest.approx(0.1, abs=1e-15)

    def test_triangular_unit_arm(self):
        # denominator at p=1, h=1: 3*2 - 2 = 4
        assert K.kernel_pmf(T1, 5, 1.0, 5) == pytest.approx(0.5, abs=1e-15)
        assert K.kernel_pmf(T1, 5, 1.0, 4) == pytest.approx(0.25, abs=1e-15)
        assert K.kernel_pmf(T1, 5, 1.0, 6) == pytest.approx(0.25, abs=1e-15)

    def test_poisson_value(self):
        want = math.exp(-2.1) * 2.1**2 / 2.0
        assert K.kernel_pmf(P, 2, 0.1, 2) == pytest.approx(want, rel=1e-14)

    def test_outside_support_is_exact_zero(self):
        assert K.kernel_pmf(B, 2, 0.3, 4) == 0.0
        assert K.kernel_pmf(B, 2, 0.3, -1) == 0.0
        assert K.kernel_pmf(P, 2, 0.3, -1) == 0.0
        assert K.kernel_pmf(T1, 2, 0.3, 4) == 0.0

    def test_triangular_negative_support_point(self):
        # target 0 with arm 1 reaches y = -1; the formula value is returned
        v = K.kernel_pmf(T1, 0, 0.5, -1)
        assert v > 0
        assert v == pytest.approx(K.kernel_pmf(T1, 0, 0.5, 1), rel=1e-15)

    def test_grid_matches_scalar(self):
        xs = [0, 1, 5]
        ys = [-1, 0, 2, 6]
        for kernel, h in [(B, 0.4), (P, 0.7), (NB, 1.3), (T1, 2.0)]:
            grid = K.pmf_grid(kernel, xs, h, ys)
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    assert grid[i, j] == K.kernel_pmf(kernel, x, h, y)


def per_cell_grid(kernel, xs, h, ys):
    """Oracle: the grid at one bandwidth by per-cell formulas, one xlogy,
    xlog1py or power per (target, point) cell, in the order of summation
    that pmf_grid keeps."""
    X = np.asarray(xs, dtype=np.float64)[:, None]
    Y = np.asarray(ys, dtype=np.float64)[None, :]
    fam = kernel.family
    if fam is K.KernelFamily.TRIANGULAR:
        p = kernel.arm
        k = np.arange(1.0, p + 1.0)
        d = np.abs(Y - X)
        norm = (2 * p + 1) * (p + 1.0) ** h - 2.0 * np.sum(k**h)
        return np.where(d <= p, ((p + 1.0) ** h - d**h) / norm, 0.0)
    Yc = np.maximum(Y, 0.0)
    if fam is K.KernelFamily.POISSON:
        lam = X + h
        logp = xlogy(Yc, lam) - lam - gammaln(Yc + 1.0)
        support = Y >= 0
    elif fam is K.KernelFamily.BINOMIAL:
        m = X + 1.0
        Yc = np.minimum(Yc, m)
        p = (X + h) / m
        coef = gammaln(m + 1.0) - gammaln(Yc + 1.0) - gammaln(m - Yc + 1.0)
        logp = coef + xlogy(Yc, p) + xlog1py(m - Yc, -p)
        support = (Y >= 0) & (Y <= m)
    else:
        r = X + 1.0
        q = r / (2.0 * X + 1.0 + h)
        coef = gammaln(Yc + r) - gammaln(Yc + 1.0) - gammaln(r)
        logp = coef + r * np.log(q) + xlogy(Yc, 1.0 - q)
        support = Y >= 0
    return np.where(support, np.exp(logp), 0.0)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert not np.isnan(got).any()
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestGridBits:
    # pmf_grid against per-cell formulas written out here, so the bits are
    # pinned independently of how pmf_grid shares work between cells
    WIDE_XS = np.arange(0, 501)
    WIDE_YS = np.unique(np.concatenate([np.arange(-3, 25), np.arange(0, 720, 7), [499, 500, 501, 502]]))

    @pytest.mark.parametrize(
        "kernel, hs",
        [
            (B, [1e-4, 0.03, 0.5, 0.999, 1.0]),
            (P, [1e-4, 0.03, 0.5, 1.0, 4.7]),
            (NB, [1e-4, 0.03, 0.5, 1.0, 4.7]),
            (T1, [1e-4, 0.5, 1.0, 2.0, 9.3]),
            (K.triangular(2), [1e-4, 0.5, 1.0, 2.0, 9.3]),
            (K.triangular(3), [1e-4, 0.5, 1.0, 2.0, 9.3]),
        ],
        ids=lambda v: v.label if isinstance(v, K.KernelSpec) else None,
    )
    def test_wide_grid_scalar_and_array_bandwidths(self, kernel, hs):
        # pmf_grid at each bandwidth, and one set of grid terms at all of them
        # at once and at each in turn
        xs, ys = self.WIDE_XS, self.WIDE_YS
        wants = [per_cell_grid(kernel, xs, h, ys) for h in hs]
        for h, want in zip(hs, wants):
            assert_same_bits(K.pmf_grid(kernel, xs, h, ys), want)
        terms = K._GridTerms(kernel, xs, ys)
        assert_same_bits(terms.at(np.array(hs)), np.stack(wants))
        for h, want in zip(hs, wants):
            assert_same_bits(terms.at(np.array([h])), want[None])

    def test_binomial_where_the_success_probability_rounds_to_one(self):
        # at h = 1, and where x + h rounds to x + 1 below h = 1, log(1 - p)
        # is -inf; the point y = x + 1 then carries all the mass.  In a stack
        # with h = 0.5 the finite rows take the -inf rows' branch too.
        x, h = 100_000, 1.0 - 1e-12
        assert (x + h) / (x + 1.0) == 1.0
        xs, ys = [0, 3, x - 1, x], np.array([0, 1, 3, 4, 5, x - 1, x, x + 1, x + 2])
        hs = [0.5, 1.0, h]
        wants = [per_cell_grid(B, xs, v, ys) for v in hs]
        for v, want in zip(hs, wants):
            assert_same_bits(K.pmf_grid(B, xs, v, ys), want)
        assert_same_bits(K._GridTerms(B, xs, ys).at(np.array(hs)), np.stack(wants))
        assert K.kernel_pmf(B, x, h, x + 1) == 1.0 and K.kernel_pmf(B, x, h, x) == 0.0

    def test_grid_past_the_cell_limit_is_refused(self, monkeypatch):
        # checked on the shape, before any grid-sized array is built
        with pytest.raises(RuntimeError, match=r"binomial kernel grid of 5000 targets x 4000 points .* 16777216 cells"):
            K.pmf_grid(B, np.arange(5000), 0.5, np.arange(4000))
        monkeypatch.setattr(K, "_MAX_GRID_CELLS", 12)
        assert K.pmf_grid(P, [0, 1, 2], 0.5, [0, 1, 2, 3]).shape == (3, 4)
        for kernel in (D, B, P, NB, T1):
            with pytest.raises(RuntimeError, match=r"grid of 3 targets x 5 points is past the dense-grid limit of 12"):
                K._GridTerms(kernel, [0, 1, 2], [0, 1, 2, 3, 4])

    @pytest.mark.parametrize("kernel", [D, B, P, NB, T1], ids=lambda k: k.label)
    def test_returned_grid_is_the_callers(self, kernel):
        # a one-shot grid owns its array: a second call does not write into it
        xs, ys = self.WIDE_XS, self.WIDE_YS
        h1, h2 = (0.0, 0.0) if kernel is D else (0.3, 0.7)
        first = K.pmf_grid(kernel, xs, h1, ys)
        before = [v.hex() for v in first.ravel().tolist()]
        K.pmf_grid(kernel, xs, h2, ys)
        assert [v.hex() for v in first.ravel().tolist()] == before
        terms = K._GridTerms(kernel, xs, ys)
        first = terms.at(np.array([h1]))
        before = [v.hex() for v in first.ravel().tolist()]
        terms.at(np.array([h2]))
        assert [v.hex() for v in first.ravel().tolist()] == before

    def test_exp_is_exactly_zero_below_the_underflow_cut(self):
        # the masked exp writes +0.0 below the cut, so exp must give +0.0 there;
        # the array is long enough for numpy's vector loop
        below = [K._EXP_UNDERFLOW_CUT]
        for _ in range(16):
            below.append(float(np.nextafter(below[-1], -np.inf)))
        below += [K._EXP_UNDERFLOW_CUT - 1.0, -1e300, -np.inf]
        assert {v.hex() for v in np.exp(np.array(below * 8)).tolist()} == {"0x0.0p+0"}
        assert {float(np.exp(np.float64(v))).hex() for v in below} == {"0x0.0p+0"}

    @pytest.mark.parametrize("h", [1e-4, 0.1, 0.5, 1.0])
    def test_wide_binomial_grid_equals_dense_exp(self, h):
        # a grid wide enough for the masked exp equals np.exp of its whole log
        # grid, bit for bit, where most cells are below the cut
        xs, ys = self.WIDE_XS, self.WIDE_YS
        assert xs.size * ys.size >= K._MASKED_EXP_CELLS
        X, Y = xs[:, None].astype(np.float64), ys[None, :].astype(np.float64)
        m = X + 1.0
        Yc = np.minimum(np.maximum(Y, 0.0), m)
        p = (X + h) / m
        coef = gammaln(m + 1.0) - gammaln(Yc + 1.0) - gammaln(m - Yc + 1.0)
        logs = np.where((Y >= 0) & (Y <= m), coef + xlogy(Yc, p) + xlog1py(m - Yc, -p), -np.inf)
        assert (logs < K._EXP_UNDERFLOW_CUT).mean() > 0.4
        assert_same_bits(K.pmf_grid(B, xs, h, ys), np.exp(logs))

    def test_nan_log_mass_reaches_exp(self):
        # ~(logs < cut) keeps a NaN cell in the masked exp, which leaves it NaN
        xs, ys = self.WIDE_XS, self.WIDE_YS
        assert np.isnan(K._GridTerms(B, xs, ys).at(np.array([np.nan]))).all()

    @pytest.mark.parametrize(
        "logs",
        [
            [-2.5, -0.1, -7.0, -1e-300],
            [-2.5, -np.inf, -0.1, -np.inf],
            [-2.5, np.nan, -0.1, -3.0],
            [np.nan, -0.1, -np.inf, -3.0],
            [-np.inf, -0.1, np.nan, -3.0],
        ],
    )
    @pytest.mark.parametrize("shape", [(1, -1, 1), (-1, 1, 1)])
    def test_times_log_branch_rule(self, logs, shape):
        # the old rule, min() over the logs, written out: the argmin pick must
        # take the same branch, and with it give the same bits, NaN included
        log_row = np.array(logs).reshape(shape)
        count = np.array([[[0.0, 1.0, 2.0, 17.0, 0.0]]])
        with np.errstate(invalid="ignore"):
            want = count * log_row
            got = K._times_log(count, log_row, np.empty(want.shape))
        if not log_row.min() > -np.inf:
            want[np.broadcast_to(count == 0, want.shape)] = 0.0
        assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]

    def test_negbin_small_bandwidth(self):
        xs, ys = self.WIDE_XS, self.WIDE_YS
        assert_same_bits(K.pmf_grid(NB, xs, 1e-4, ys), per_cell_grid(NB, xs, 1e-4, ys))
        # below h = 2**-53, q rounds to 1 at x = 0: log(1 - q) is -inf and
        # the kernel is the point mass at 0
        h = 1e-17
        assert K._negbin_params(0.0, h)[1] == 1.0
        assert_same_bits(K.pmf_grid(NB, xs, h, ys), per_cell_grid(NB, xs, h, ys))
        assert K.kernel_pmf(NB, 0, h, 0) == 1.0


class TestSupport:
    def test_binomial_exact(self):
        sup = K.kernel_support(B, 4, 0.3)
        assert (sup.lo, sup.hi, sup.truncation_hi, sup.tail_mass_bound) == (0, 5, 5, 0.0)

    def test_dirac_point(self):
        sup = K.kernel_support(D, 7, 0.0)
        assert (sup.lo, sup.hi) == (7, 7)

    def test_triangular_window(self):
        sup = K.kernel_support(K.triangular(3), 2, 0.5)
        assert (sup.lo, sup.hi) == (-1, 5)

    def test_tail_scan_stops_at_its_limit(self, monkeypatch):
        # at tail_eps = 1e-300 the scan doubles its bound 12 -> 32 -> 72 -> 152
        # -> 312; a limit in between caps the bound rather than stepping over it
        want = K.kernel_support(P, 0, 1.0, 1e-300)
        assert want.truncation_hi == 166
        try:
            for limit in (200, 100):
                K._tail_index.cache_clear()
                monkeypatch.setattr(K, "_TAIL_SCAN_LIMIT", limit)
                if limit > want.truncation_hi:
                    assert K.kernel_support(P, 0, 1.0, 1e-300) == want
                else:
                    with pytest.raises(RuntimeError, match=r"x = 0, h = 1.0 keeps more than 1e-300 .* limit of 100$"):
                        K.kernel_support(P, 0, 1.0, 1e-300)
        finally:
            K._tail_index.cache_clear()

    def test_poisson_truncation_bound(self):
        # oracle: cumulative sum of the poisson mass at rate 2.1
        sup = K.kernel_support(P, 2, 0.1, 1e-12)
        ys = np.arange(0, sup.truncation_hi + 1)
        mass = K.pmf_grid(P, [2], 0.1, ys)[0].sum()
        assert 1.0 - mass <= 1e-12
        shorter = K.pmf_grid(P, [2], 0.1, np.arange(0, sup.truncation_hi))[0].sum()
        assert 1.0 - shorter > 1e-12  # truncation_hi is the smallest such bound

    @pytest.mark.parametrize("kernel", [P, NB])
    @pytest.mark.parametrize("x", [0, 1, 7, 20, 300])
    def test_truncation_is_first_index_below_scipy_stats_sf(self, kernel, x):
        # scipy.stats is an independent oracle here; the package does not use it
        from scipy import stats

        ks = np.arange(0, 2000)
        for h in (1e-4, 0.1, 1.0, 5.0):
            if kernel is P:
                sf = stats.poisson.sf(ks, x + h)
            else:
                sf = stats.nbinom.sf(ks, x + 1, (x + 1.0) / (2.0 * x + 1.0 + h))
            for eps in (1e-12, 1e-14, 1e-16):
                assert sf[-1] <= eps
                want = int(np.argmax(sf <= eps))
                sup = K.kernel_support(kernel, x, h, eps)
                assert sup.truncation_hi == want
                assert sup.tail_mass_bound == pytest.approx(sf[want], rel=1e-9)

    def test_package_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats is most of a cold start's import time and memory
        src = str(Path(K.__file__).resolve().parents[1])
        code = "import sys, dks, dks.cli; print('scipy.stats' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout == "False\n"

    def test_tail_eps_validated(self):
        with pytest.raises(ValueError):
            K.kernel_support(P, 2, 0.1, 0.0)


class TestNormalization:
    @pytest.mark.parametrize("kernel", [B, P, NB, T1, K.triangular(3)])
    @pytest.mark.parametrize("h", [0.01, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("x", [0, 1, 7, 20])
    def test_mass_sums_to_one(self, kernel, h, x):
        # 1e-12 of extra slack below covers per-term log-gamma rounding,
        # which is of the same order as the truncated tail itself
        eps = 1e-12
        sup = K.kernel_support(kernel, x, h, eps)
        ys = np.arange(sup.lo, sup.truncation_hi + 1)
        total = K.pmf_grid(kernel, [x], h, ys).sum()
        assert 1.0 - eps - 1e-12 <= total <= 1.0 + 1e-12


class TestMoments:
    @pytest.mark.parametrize("kernel", STANDARD)
    def test_mean_shift(self, kernel):
        assert K.kernel_mean(kernel, 5, 0.2) == pytest.approx(5.2, abs=1e-15)

    def test_triangular_mean_is_target(self):
        assert K.kernel_mean(T1, 5, 0.7) == 5.0

    def test_poisson_variance(self):
        assert K.kernel_variance(P, 3, 0.5) == pytest.approx(3.5, abs=1e-15)

    def test_binomial_variance_at_zero(self):
        assert K.kernel_variance(B, 0, 0.3) == pytest.approx(0.21, abs=1e-15)

    @pytest.mark.parametrize("kernel", [B, P, NB, T1, K.triangular(4)])
    @pytest.mark.parametrize("x", [0, 1, 7, 20])
    @pytest.mark.parametrize("h", [0.01, 0.3, 1.0])
    def test_closed_forms_match_numeric_sums(self, kernel, x, h):
        m1, var = numeric_moments(kernel, x, h)
        assert K.kernel_mean(kernel, x, h) == pytest.approx(m1, abs=1e-10)
        assert K.kernel_variance(kernel, x, h) == pytest.approx(var, abs=1e-10)


class TestModalBehaviour:
    def test_modal_probability_is_pmf_at_target(self):
        for kernel, h in [(B, 0.2), (P, 0.2), (NB, 0.2), (T1, 0.2), (D, 0.0)]:
            for x in (0, 3, 11):
                assert K.modal_probability(kernel, x, h) == K.kernel_pmf(kernel, x, h, x)

    def test_limits_at_zero_target(self):
        assert K.modal_limit(B, 0) == pytest.approx(1.0, abs=1e-14)
        assert K.modal_limit(P, 0) == pytest.approx(1.0, abs=1e-14)
        assert K.modal_limit(NB, 0) == pytest.approx(1.0, abs=1e-14)

    def test_known_limits(self):
        assert K.modal_limit(P, 1) == pytest.approx(math.exp(-1), rel=1e-14)
        assert K.modal_limit(NB, 1) == pytest.approx(8.0 / 27.0, rel=1e-13)
        assert K.modal_limit(T1, 5) == 1.0
        assert K.modal_limit(D, 5) == 1.0

    def test_collapse_dichotomy_near_zero_bandwidth(self):
        # consistent kernel -> mass 1 at the target; standard kernels keep
        # their sub-unit limit
        h = 1e-6
        assert K.modal_probability(T1, 4, h) > 0.999
        for kernel in STANDARD:
            for x in (1, 2, 5, 10):
                limit = K.modal_limit(kernel, x)
                assert limit < 0.8
                assert K.modal_probability(kernel, x, h) == pytest.approx(limit, abs=1e-5)

    @pytest.mark.parametrize("kernel", STANDARD)
    @pytest.mark.parametrize("x", range(1, 11))
    def test_small_h_expansion_envelope(self, kernel, x):
        # |modal(h) - (1 - h^2) * limit| = O(h^2): the ratio to h^2 stays
        # bounded as h shrinks (2% slack for the O(h^3) remainder)
        # the 1e-7 floor absorbs float noise, which err/h^2 amplifies by
        # 1/h^2 = 1e8 at the smallest h
        limit = K.modal_limit(kernel, x)
        ratios = []
        for h in (1e-2, 1e-3, 1e-4):
            err = abs(K.modal_probability(kernel, x, h) - (1.0 - h * h) * limit)
            ratios.append(err / (h * h))
        assert ratios[1] <= ratios[0] * 1.02 + 1e-7
        assert ratios[2] <= ratios[1] * 1.02 + 1e-7


class TestRankings:
    @pytest.mark.parametrize("x", range(1, 21))
    @pytest.mark.parametrize("h", [0.01, 0.05, 0.1, 0.2])
    def test_modal_probability_ranking_small_h(self, x, h):
        assert (
            K.modal_probability(NB, x, h)
            <= K.modal_probability(P, x, h)
            <= K.modal_probability(B, x, h)
        )

    @pytest.mark.parametrize("x", range(0, 21))
    @pytest.mark.parametrize("h", [round(0.1 * k, 1) for k in range(1, 11)])
    def test_variance_ranking_all_h(self, x, h):
        assert K.kernel_variance(NB, x, h) >= K.kernel_variance(P, x, h) >= K.kernel_variance(B, x, h)

    def test_modal_dominance_can_fail_at_large_h(self):
        # the binomial lead is known to break somewhere near h = 0.9;
        # probe it without asserting where the crossover sits
        broken = any(
            K.modal_probability(B, x, 0.9)
            < max(K.modal_probability(P, x, 0.9), K.modal_probability(NB, x, 0.9))
            for x in range(2, 11)
        )
        assert broken


class TestModalLimitRatios:
    def test_values_at_origin(self):
        assert K.modal_limit_ratio_poisson_binomial(0) == pytest.approx(1.0, abs=1e-14)
        assert K.modal_limit_ratio_negbin_poisson(0) == pytest.approx(1.0, abs=1e-14)

    def test_known_values(self):
        assert K.modal_limit_ratio_poisson_binomial(1) == pytest.approx(2.0 / math.e, rel=1e-13)
        assert K.modal_limit_ratio_negbin_poisson(1) == pytest.approx(8.0 * math.e / 27.0, rel=1e-13)

    def test_ratios_match_limit_quotients(self):
        for x in (1, 2, 5, 17):
            assert K.modal_limit_ratio_poisson_binomial(x) == pytest.approx(
                K.modal_limit(P, x) / K.modal_limit(B, x), rel=1e-12
            )
            assert K.modal_limit_ratio_negbin_poisson(x) == pytest.approx(
                K.modal_limit(NB, x) / K.modal_limit(P, x), rel=1e-12
            )

    def test_nonincreasing_and_bounded(self):
        xs = range(0, 51)
        r1 = [K.modal_limit_ratio_poisson_binomial(x) for x in xs]
        r2 = [K.modal_limit_ratio_negbin_poisson(x) for x in xs]
        for seq in (r1, r2):
            assert seq[0] == pytest.approx(1.0, abs=1e-14)
            assert all(v <= 1.0 + 1e-12 for v in seq)
            assert all(seq[i + 1] <= seq[i] + 1e-12 for i in range(len(seq) - 1))

    def test_log_space_stays_finite_far_out(self):
        assert 0.0 < K.modal_limit_ratio_poisson_binomial(3000) < 1.0
        assert 0.0 < K.modal_limit_ratio_negbin_poisson(3000) < 1.0


class TestTriangularExpansion:
    def test_unit_arm_coefficients(self):
        a, v = K.triangular_small_h_coeffs(1)
        assert a == pytest.approx(math.log(2), rel=1e-15)
        assert v == pytest.approx(math.log(2), rel=1e-15)

    def test_arm_two_coefficients(self):
        a, v = K.triangular_small_h_coeffs(2)
        assert a == pytest.approx(2 * math.log(3) - math.log(2), rel=1e-14)
        assert v == pytest.approx(5 * math.log(3) - 4 * math.log(2), rel=1e-14)

    @pytest.mark.parametrize("arm", [1, 2, 5])
    def test_linear_term_matches_modal_probability(self, arm):
        # quadratic remainder: the err/h^2 ratio must not grow as h shrinks
        kernel = K.triangular(arm)
        a, _ = K.triangular_small_h_coeffs(arm)
        # the ratio approaches the h^2 coefficient from below; 1.2x slack
        # covers the O(h) convergence gap
        ratios = []
        for h in (1e-2, 1e-3, 1e-4):
            err = abs(K.modal_probability(kernel, 4, h) - (1.0 - 2.0 * h * a))
            ratios.append(err / (h * h))
        assert ratios[1] <= ratios[0] * 1.2 + 1e-7
        assert ratios[2] <= ratios[1] * 1.2 + 1e-7

    @pytest.mark.parametrize("arm", [1, 3])
    def test_variance_linear_term(self, arm):
        kernel = K.triangular(arm)
        _, v = K.triangular_small_h_coeffs(arm)
        h = 1e-4
        err = abs(K.kernel_variance(kernel, 4, h) - 2.0 * h * v)
        assert err < 100.0 * h * h


class TestEveryFamily:
    # A new family must answer every per-family function, not only some.
    @pytest.mark.parametrize("family", list(K.KernelFamily))
    def test_family_is_fully_wired(self, family):
        kernel = K.KernelSpec(family, arm=2 if family is K.KernelFamily.TRIANGULAR else None)
        h = 0.0 if family is K.KernelFamily.DIRAC else 0.5
        grid = K.pmf_grid(kernel, [0, 3], h, np.arange(-3, 40))
        assert grid.shape == (2, 43) and np.all(grid >= 0.0)
        sup = K.kernel_support(kernel, 3, h)
        assert sup.lo <= 3 <= sup.truncation_hi
        assert grid[1].sum() == pytest.approx(1.0, abs=1e-9)
        assert K.kernel_mean(kernel, 3, h) == pytest.approx(numeric_moments(kernel, 3, h)[0], abs=1e-9)
        assert K.kernel_variance(kernel, 3, h) == pytest.approx(numeric_moments(kernel, 3, h)[1], abs=1e-9)
        assert 0.0 < K.modal_limit(kernel, 3) <= 1.0
        if family is not K.KernelFamily.DIRAC:
            K.validate_bandwidth(kernel, default_search_config(family).h_max)
