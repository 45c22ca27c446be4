import numpy as np
import pytest

from dks import kernels as K
from dks import risk as R

B, P, NB, D = K.binomial(), K.poisson(), K.negbin(), K.dirac()
T1 = K.triangular(1)
F2 = R.PoissonPmf(2.0)


class TestTruePmf:
    def test_poisson_mass_and_tail(self):
        xs = np.arange(0, F2.tail_cutoff(1e-15) + 1)
        assert F2.pmf(xs).sum() == pytest.approx(1.0, abs=1e-12)
        assert F2.pmf(-1) == 0.0
        assert F2.pmf(2) == pytest.approx(np.exp(-2.0) * 2.0, rel=1e-14)

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            R.PoissonPmf(0.0)

    def test_poisson_mean_must_be_finite(self):
        for mu in (float("inf"), 1e400):
            with pytest.raises(ValueError, match="^mu must be finite, got inf$"):
                R.PoissonPmf(mu)
        for mu in (float("nan"), float("-inf"), -1.0):
            with pytest.raises(ValueError, match="^mu must be positive$"):
                R.PoissonPmf(mu)

    def test_tabulated(self):
        t = R.TabulatedPmf([0.2, 0.5, 0.3])
        assert t.pmf(1) == 0.5
        assert t.pmf(3) == 0.0 and t.pmf(-2) == 0.0
        assert t.sum_squared() == pytest.approx(0.38, abs=1e-15)
        with pytest.raises(ValueError):
            R.TabulatedPmf([0.7, 0.7])
        with pytest.raises(ValueError):
            R.TabulatedPmf([1.2, -0.2])

    @pytest.mark.parametrize("mu", [0.3, 2.0, 21.7])
    def test_poisson_tail_cutoff_is_first_index_below_eps(self, mu):
        from scipy import stats

        f = R.PoissonPmf(mu)
        for eps in (1e-12, 1e-15, 1e-16, 1e-12):
            x = f.tail_cutoff(eps)
            assert stats.poisson.sf(x, mu) <= eps < stats.poisson.sf(x - 1, mu)
            assert R.PoissonPmf(mu).tail_cutoff(eps) == x

    @pytest.mark.parametrize("mu", [0.05, 0.3, 2.0, 21.7, 480.5])
    def test_poisson_tail_cutoff_is_poisson_kernel_at_zero(self, mu):
        # Poisson(mu) is the poisson kernel at target 0 with bandwidth mu;
        # the cache is cleared so that each side runs its own scan
        for eps in (1e-6, 1e-12, 1e-16):
            K._tail_index.cache_clear()
            want = K.kernel_support(P, 0, mu, eps).truncation_hi
            K._tail_index.cache_clear()
            assert R.PoissonPmf(mu).tail_cutoff(eps) == want

    def test_tabulated_tail_cutoff(self):
        t = R.TabulatedPmf([0.5, 0.25, 0.25 - 1e-13, 1e-13])
        for _ in range(2):
            assert t.tail_cutoff(1e-12) == 2
            assert t.tail_cutoff(1e-14) == 3
            assert t.tail_cutoff(0.3) == 1

    def test_sum_squared_against_series(self):
        # e^{-2 mu} sum mu^{2x} / (x!)^2, summed far beyond the tail
        xs = np.arange(0, 80, dtype=float)
        from scipy.special import gammaln

        direct = float(np.sum(np.exp(2 * (xs * np.log(2.0) - 2.0 - gammaln(xs + 1)))))
        assert F2.sum_squared() == pytest.approx(direct, rel=1e-13)


class TestExpectedEstimate:
    def test_dirac_is_unbiased(self):
        for x in (0, 2, 7):
            assert R.expected_estimate(D, 0.0, F2, x) == pytest.approx(float(F2.pmf(x)), rel=1e-14)
            assert R.exact_bias(D, 0.0, F2, x) == pytest.approx(0.0, abs=1e-16)
            assert R.bias_off_target(D, 0.0, F2, x) == 0.0

    def test_binomial_two_term_support(self):
        want = 0.9 * float(F2.pmf(0)) + 0.1 * float(F2.pmf(1))
        assert R.expected_estimate(B, 0.1, F2, 0) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("kernel", [B, P, NB, T1])
    @pytest.mark.parametrize("h", [0.05, 0.2])
    @pytest.mark.parametrize("x", range(0, 11))
    def test_bias_decomposition_identity(self, kernel, h, x):
        lhs = R.exact_bias(kernel, h, F2, x, 1e-14)
        modal = K.modal_probability(kernel, x, h)
        rhs = float(F2.pmf(x)) * (modal - 1.0) + R.bias_off_target(kernel, h, F2, x, 1e-14)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestExactVariance:
    def test_dirac_proportion_variance(self):
        for n in (10, 25):
            for x in (0, 2, 5):
                fx = float(F2.pmf(x))
                assert R.exact_variance(D, 0.0, F2, n, x) == pytest.approx(fx * (1 - fx) / n, rel=1e-12)

    @pytest.mark.parametrize("kernel", [B, P, NB, T1])
    @pytest.mark.parametrize("h", [0.05, 0.2])
    @pytest.mark.parametrize("n", [25, 100])
    @pytest.mark.parametrize("x", range(0, 11))
    def test_variance_decomposition_identity(self, kernel, h, n, x):
        direct = R.exact_variance(kernel, h, F2, n, x, 1e-14)
        fx = float(F2.pmf(x))
        modal = K.modal_probability(kernel, x, h)
        decomposed = fx * modal**2 / n - fx**2 / n + R.variance_remainder(kernel, h, F2, n, x, 1e-14)
        assert direct == pytest.approx(decomposed, abs=1e-12)

    def test_inverse_n_scaling(self):
        v25 = R.exact_variance(B, 0.2, F2, 25, 3)
        v100 = R.exact_variance(B, 0.2, F2, 100, 3)
        assert v100 == pytest.approx(v25 / 4.0, rel=1e-13)


class TestExactMise:
    def test_dirac_matches_frequency_formula(self):
        # match the analytic total: integrate past the 1e-16 tail
        br = R.exact_mise(D, 0.0, F2, 25, integration_tail=1e-16)
        assert br.mise == pytest.approx((1.0 - F2.sum_squared()) / 25.0, abs=1e-14)
        assert br.mise == pytest.approx(0.0317, abs=5e-5)

    def test_parts_add_up(self):
        for kernel, h in [(B, 0.05), (P, 0.2), (NB, 0.05), (T1, 0.2)]:
            for n in (25, 100):
                br = R.exact_mise(kernel, h, F2, n, tail_eps=1e-14)
                assert br.mise == pytest.approx(br.integrated_squared_bias + br.integrated_variance, abs=1e-15)
                assert br.mise == pytest.approx(
                    float(np.sum(br.bias**2) + np.sum(br.variance)), abs=1e-15
                )

    def test_mise_is_amise_plus_remainders(self):
        # bias^2 - f^2 (m-1)^2 expands to q (2 f (m-1) + q); adding the
        # variance remainders recovers the full risk
        for kernel in (B, P, NB):
            br = R.exact_mise(kernel, 0.2, F2, 25, tail_eps=1e-14)
            lead = br.bias - br.bias_off_target  # f(x) (m(x) - 1)
            q_contrib = br.bias_off_target * (2.0 * lead + br.bias_off_target)
            recon = br.amise + float(np.sum(q_contrib) + np.sum(br.variance_remainder))
            assert recon == pytest.approx(br.mise, abs=1e-10)

    @pytest.mark.parametrize("kernel", [B, P, NB, T1])
    def test_per_target_pieces_match_scalar_functions(self, kernel):
        h, n = 0.2, 25
        br = R.exact_mise(kernel, h, F2, n)
        for i, x in enumerate(br.x_values):
            x = int(x)
            assert br.bias[i] == pytest.approx(R.exact_bias(kernel, h, F2, x), abs=1e-12)
            assert br.variance[i] == pytest.approx(R.exact_variance(kernel, h, F2, n, x), abs=1e-12)
            assert br.bias_off_target[i] == pytest.approx(R.bias_off_target(kernel, h, F2, x), abs=1e-12)
            assert br.variance_remainder[i] == pytest.approx(
                R.variance_remainder(kernel, h, F2, n, x), abs=1e-12
            )

    @pytest.mark.parametrize("f", [F2, R.TabulatedPmf([0.1, 0.3, 0.25, 0.2, 0.1, 0.05])], ids=["poisson", "tabulated"])
    @pytest.mark.parametrize("kernel, h", [(B, 0.3), (P, 0.3), (NB, 0.3), (T1, 1.0)])
    def test_breakdown_equals_separate_pmf_calls(self, f, kernel, h):
        # exact_mise and expected_normalization take f(x) from the f(y) of the
        # grid's columns; the same formulas with a second pmf call give the
        # same bits
        n = 25
        x_max = f.tail_cutoff(1e-12)
        xs = np.arange(0, x_max + 1)
        ys = np.arange(0, max(K.kernel_support(kernel, x_max, h).truncation_hi, x_max) + 1)
        G = K.pmf_grid(kernel, xs, h, ys)
        fy, fx = f.pmf(ys), f.pmf(xs)
        Ef, modal = G @ fy, G[xs, xs]
        bias, var = Ef - fx, ((G * G) @ fy - Ef * Ef) / n
        want = {
            "bias": bias,
            "variance": var,
            "bias_off_target": Ef - fx * modal,
            "variance_remainder": var - (fx * modal * modal - fx * fx) / n,
            "integrated_squared_bias": float(np.sum(bias * bias)),
            "integrated_variance": float(np.sum(var)),
            "amise": float(np.sum(fx * fx * (modal - 1.0) ** 2) + np.sum(fx * (modal * modal - fx)) / n),
        }
        br = R.exact_mise(kernel, h, f, n)
        for name, value in want.items():
            got = np.atleast_1d(getattr(br, name)).tolist()
            assert [v.hex() for v in got] == [float(v).hex() for v in np.atleast_1d(value)], name
        normalization = 1.0 + float(np.sum(Ef[2:] - fx[2:]))
        assert R.expected_normalization(kernel, h, f, eval_lo=2).hex() == normalization.hex()

    def test_small_h_mise_ranking(self):
        ms = [R.exact_mise(k, 0.05, F2, 1000).mise for k in (B, P, NB)]
        assert ms[0] <= ms[1] <= ms[2]

    def test_bias_sum_ranking_small_h(self):
        sums = [
            sum(R.exact_bias(k, 0.05, F2, x) for x in range(0, F2.tail_cutoff(1e-12) + 1))
            for k in (B, P, NB)
        ]
        assert sums[0] <= sums[1] <= sums[2]


class TestAmise:
    def test_dirac_equals_frequency_mise(self):
        for n in (10, 25, 100):
            assert R.amise(D, 0.0, F2, n, integration_tail=1e-16) == pytest.approx(
                R.frequency_mise(F2, n), abs=1e-14
            )

    @pytest.mark.parametrize("n", [25, 100])
    @pytest.mark.parametrize("h", [0.01, 0.05, 0.1])
    def test_ranking(self, n, h):
        assert R.amise(B, h, F2, n) <= R.amise(P, h, F2, n) <= R.amise(NB, h, F2, n)

    def test_binomial_bias_low_variance_high(self):
        # lead terms at h = 0.05, n = 100: binomial trades bias for variance
        # against the negative binomial
        h, n = 0.05, 100
        xs = np.arange(0, F2.tail_cutoff(1e-12) + 1)
        fx = F2.pmf(xs)

        def parts(kernel):
            modal = K.pmf_grid(kernel, xs, h, xs)[np.arange(len(xs)), np.arange(len(xs))]
            bias_term = float(np.sum(fx * fx * (modal - 1.0) ** 2))
            var_term = float(np.sum(fx * (modal * modal - fx)) / n)
            return bias_term, var_term

        b_bias, b_var = parts(B)
        nb_bias, nb_var = parts(NB)
        assert b_bias <= nb_bias
        assert b_var >= nb_var


class TestFrequencyMise:
    def test_analytic_values(self):
        got = {n: R.frequency_mise(F2, n) for n in (15, 25, 50, 75, 100)}
        want = {15: 0.0528665, 25: 0.0317199, 50: 0.0158600, 75: 0.0105733, 100: 0.0079300}
        for n in want:
            assert got[n] == pytest.approx(want[n], abs=5e-7)

    def test_point_mass_has_zero_risk(self):
        point = R.TabulatedPmf([0.0, 1.0])
        assert R.frequency_mise(point, 40) == pytest.approx(0.0, abs=1e-15)

    def test_equals_dirac_mise(self):
        for n in (15, 100):
            got = R.exact_mise(D, 0.0, F2, n, integration_tail=1e-16).mise
            assert R.frequency_mise(F2, n) == pytest.approx(got, abs=1e-14)


class TestBiasExpansion:
    def test_triangular_limit_is_curvature_term(self):
        # symmetric kernel: the mean sits on the target, only curvature remains
        x = 2
        f2 = float(F2.pmf(x + 1)) - 2.0 * float(F2.pmf(x)) + float(F2.pmf(x - 1))
        h = 1e-4
        want = 0.5 * K.kernel_variance(T1, x, h) * f2
        assert R.bias_expansion(T1, h, F2, x) == pytest.approx(want, rel=1e-10)

    def test_boundary_uses_zero_below_support(self):
        # x = 0 needs f(-1) = 0 in the second difference
        got = R.bias_expansion(B, 0.1, F2, 0)
        f2 = float(F2.pmf(1)) - 2.0 * float(F2.pmf(0))
        f_mean = 0.9 * float(F2.pmf(0)) + 0.1 * float(F2.pmf(1))
        want = f_mean - float(F2.pmf(0)) + 0.5 * K.kernel_variance(B, 0, 0.1) * f2
        assert got == pytest.approx(want, rel=1e-13)

    def test_approaches_exact_bias(self):
        errs = [abs(R.exact_bias(B, h, F2, 2) - R.bias_expansion(B, h, F2, 2)) for h in (0.2, 0.1, 0.05)]
        assert errs[0] > errs[1] > errs[2]

    def test_magnitude_ordering(self):
        mags = [abs(R.bias_expansion(k, 0.05, F2, 2)) for k in (B, P, NB)]
        assert mags[0] <= mags[1] <= mags[2]


class TestExpectedNormalization:
    def test_dirac_is_one(self):
        assert R.expected_normalization(D, 0.0, F2) == pytest.approx(1.0, abs=1e-12)

    def test_ranking(self):
        e = [R.expected_normalization(k, 0.05, F2) for k in (B, P, NB)]
        assert e[0] <= e[1] <= e[2]

    def test_monte_carlo_agreement(self):
        # 500 seeded samples of size 200 with a fixed evaluation range
        from dks.estimation import kernel_estimate_raw
        from dks.simulation import replicate_stream, sample_from_pmf

        h, hi = 0.1, 25
        want = R.expected_normalization(B, h, F2, eval_lo=0, eval_hi=hi)
        cs = []
        for rep in range(500):
            sample = sample_from_pmf(F2, 200, replicate_stream(7, 200, rep))
            cs.append(kernel_estimate_raw(sample, B, h, 0, hi).normalization_constant)
        mean = float(np.mean(cs))
        se = float(np.std(cs, ddof=1)) / np.sqrt(len(cs))
        assert abs(mean - want) <= 3.0 * se


class TestRemaindersDoNotVanish:
    @pytest.mark.parametrize("kernel", [B, P, NB])
    def test_off_target_bias_floor_at_tiny_h(self, kernel):
        total = sum(R.bias_off_target(kernel, 1e-4, F2, x) for x in range(0, 21))
        assert total > 1e-3
