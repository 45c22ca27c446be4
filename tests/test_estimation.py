import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dks import estimation as E
from dks import kernels as K

B, P, NB, D = K.binomial(), K.poisson(), K.negbin(), K.dirac()
T1 = K.triangular(1)

SAFOU = E.Sample.from_counts({30: 28, 31: 21, 32: 11})
HURA = E.Sample.from_counts({25: 5, 26: 5, 27: 7, 28: 8, 29: 11, 30: 2, 31: 1, 32: 4, 33: 4, 34: 2, 35: 2})


def naive_cv(values, kernel, h, x_hi):
    """Brute-force oracle: explicit loops over targets and ordered pairs.

    Uses the same kind of tail bound as the implementation; contributions
    beyond it are below 1e-22 for any case exercised here.
    """
    n = len(values)
    term1 = 0.0
    for x in range(0, x_hi + 1):
        fx = sum(K.kernel_pmf(kernel, x, h, v) for v in values) / n
        term1 += fx * fx
    term2 = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                term2 += K.kernel_pmf(kernel, values[i], h, values[j])
    return term1 - 2.0 * term2 / (n * (n - 1))


class TestSample:
    def test_from_values_counts(self):
        s = E.Sample.from_values([0, 0, 1])
        assert s.counts == {0: 2, 1: 1}
        assert s.n == 3

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError):
            E.Sample.from_values([-1, 2])
        with pytest.raises(ValueError):
            E.Sample.from_counts({})
        with pytest.raises(ValueError):
            E.Sample.from_counts({3: 0})

    def test_zero_counts_dropped(self):
        s = E.Sample.from_counts({2: 3, 5: 0})
        assert s.counts == {2: 3}

    def test_equality(self):
        assert E.Sample.from_values([1, 2, 2]) == E.Sample.from_counts({1: 1, 2: 2})


class TestFrequencyEstimate:
    def test_small_sample(self):
        est = E.frequency_estimate(E.Sample.from_values([0, 0, 1]), 0, 2)
        np.testing.assert_allclose(est.values, [2 / 3, 1 / 3, 0.0])
        assert est.normalized and est.normalization_constant == 1.0

    def test_safou_frequencies(self):
        est = E.frequency_estimate(SAFOU, 30, 32)
        np.testing.assert_allclose(est.values, [28 / 60, 21 / 60, 11 / 60])

    def test_single_observation_indicator(self):
        est = E.frequency_estimate(E.Sample.from_values([5]), 0, 6)
        expected = np.zeros(7)
        expected[5] = 1.0
        np.testing.assert_allclose(est.values, expected)

    def test_range_must_cover_observations(self):
        with pytest.raises(ValueError):
            E.frequency_estimate(SAFOU, 0, 10)
        with pytest.raises(ValueError, match="evaluation range must lie in the non-negative integers"):
            E.frequency_estimate(SAFOU, -3)


class TestKernelEstimateRaw:
    def test_dirac_reduces_to_frequency(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            sample = E.Sample.from_values(rng.poisson(3.0, 40))
            hi = E.default_eval_hi(sample)
            raw = E.kernel_estimate_raw(sample, D, 0.0, 0, hi)
            freq = E.frequency_estimate(sample, 0, hi)
            np.testing.assert_array_equal(raw.values, freq.values)
            assert raw.normalization_constant == 1.0
            assert not raw.normalized

    def test_single_point_binomial(self):
        # the estimate at x weighs the observation by the kernel targeted
        # at x, so the x = 1 value is the mass Binomial(2, 0.55) puts at 0
        est = E.kernel_estimate_raw(E.Sample.from_values([0]), B, 0.1, 0, 1)
        assert est.values[0] == pytest.approx(0.9, abs=1e-15)
        assert est.values[1] == pytest.approx(0.45**2, abs=1e-15)
        assert est.normalization_constant == pytest.approx(est.values.sum(), abs=1e-15)

    def test_repeated_poisson_observations(self):
        est = E.kernel_estimate_raw(E.Sample.from_values([2, 2]), P, 0.1, 0, 5)
        assert est.values[2] == pytest.approx(math.exp(-2.1) * 2.1**2 / 2.0, rel=1e-13)

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError):
            E.kernel_estimate_raw(SAFOU, B, 0.1, -2, 5)

    @pytest.mark.parametrize("kernel", [B, P, NB, T1])
    def test_estimate_is_not_overwritten_by_the_next(self, kernel):
        sample = E.Sample.from_values(np.random.default_rng(4).integers(0, 300, 250))
        first = E.kernel_estimate_raw(sample, kernel, 0.3).values
        before = [v.hex() for v in first.tolist()]
        E.kernel_estimate_raw(sample, kernel, 0.7)
        assert [v.hex() for v in first.tolist()] == before

    def test_reconstruction_identity_binomial(self):
        # order of summation cannot matter: C equals the per-observation
        # kernel mass totals averaged over the sample
        sample = E.Sample.from_values([0, 1, 1, 3, 4, 4, 4, 7])
        h = 0.37
        hi = sample.max_value + 1
        est = E.kernel_estimate_raw(sample, B, h, 0, hi)
        xs = np.arange(0, hi + 1)
        per_obs = K.pmf_grid(B, xs, h, sample.distinct_values)
        want = float(per_obs.sum(axis=0) @ sample.value_counts) / sample.n
        assert est.normalization_constant == pytest.approx(want, abs=1e-12)


class TestNormalize:
    def test_plain_rescale(self):
        raw = E.PmfEstimate(0, 1, np.array([0.45, 0.45]), 0.9, False)
        out = E.normalize_estimate(raw)
        np.testing.assert_allclose(out.values, [0.5, 0.5])
        assert out.normalization_constant == pytest.approx(0.9)
        assert out.normalized

    def test_already_normalized_rejected(self):
        freq = E.frequency_estimate(SAFOU, 30, 32)
        with pytest.raises(ValueError):
            E.normalize_estimate(freq)

    def test_zero_mass_rejected(self):
        raw = E.PmfEstimate(0, 1, np.zeros(2), 0.0, False)
        with pytest.raises(ValueError):
            E.normalize_estimate(raw)

    @pytest.mark.parametrize("kernel,h", [(B, 0.3), (P, 0.8), (NB, 0.5), (T1, 2.0)])
    def test_normalized_sums_to_one(self, kernel, h):
        rng = np.random.default_rng(11)
        for _ in range(5):
            sample = E.Sample.from_values(rng.poisson(2.0, 30))
            out = E.normalize_estimate(E.kernel_estimate_raw(sample, kernel, h))
            assert out.total() == pytest.approx(1.0, abs=1e-12)


def tracemalloc_peak(evaluate):
    """Peak bytes that tracemalloc sees while evaluate() runs."""
    import tracemalloc

    tracemalloc.start()
    try:
        evaluate()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_cv_score(sample, kernel, h, tail_eps=1e-12):
    """CV(h) as evaluated before the batched path: a first-term grid, one
    grid per 16-row tail extension and a separate pair grid."""
    us, cs, n = sample.distinct_values, sample.value_counts, sample.n
    hi = E.default_eval_hi(sample)
    vals = K.pmf_grid(kernel, np.arange(0, hi + 1), h, us) @ cs / n
    while vals[-1] > tail_eps:
        more = K.pmf_grid(kernel, np.arange(hi + 1, hi + 17), h, us) @ cs / n
        vals = np.concatenate([vals, more])
        hi += 16
    term1 = float(np.dot(vals, vals))
    pair_grid = K.pmf_grid(kernel, us, h, us)
    pair_sum = float(cs @ pair_grid @ cs - np.dot(cs, np.diag(pair_grid)))
    return term1 - 2.0 * pair_sum / (n * (n - 1.0))


def reference_tail_rows(sample, kernel, h, tail_eps=1e-12):
    """The rows past default_eval_hi that reference_cv_score sums at h."""
    us, cs, n = sample.distinct_values, sample.value_counts, sample.n
    hi = last = E.default_eval_hi(sample)
    vals = K.pmf_grid(kernel, np.arange(0, hi + 1), h, us) @ cs / n
    while vals[-1] > tail_eps:
        vals = K.pmf_grid(kernel, np.arange(last + 1, last + 17), h, us) @ cs / n
        last += 16
    return last - hi


def reference_select(sample, kernel, cfg):
    """The 106-call selection loop: 64 sequential grid points, then 42
    golden-section steps, every one through reference_cv_score."""
    hs = np.geomspace(cfg.h_min, cfg.h_max, cfg.grid_points)
    evaluated = [(float(h), reference_cv_score(sample, kernel, float(h))) for h in hs]
    i = int(np.argmin([s for _, s in evaluated]))
    a = math.log(hs[max(i - 1, 0)])
    b = math.log(hs[min(i + 1, len(hs) - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = reference_cv_score(sample, kernel, math.exp(c))
    fd = reference_cv_score(sample, kernel, math.exp(d))
    evaluated += [(math.exp(c), fc), (math.exp(d), fd)]
    for _ in range(E._REFINE_ITERATIONS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = reference_cv_score(sample, kernel, math.exp(c))
            evaluated.append((math.exp(c), fc))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = reference_cv_score(sample, kernel, math.exp(d))
            evaluated.append((math.exp(d), fd))
    best_h, _ = min(evaluated, key=lambda t: (t[1], t[0]))
    return best_h, sorted(evaluated)


class TestCvScore:
    def test_requires_two_observations(self):
        with pytest.raises(ValueError):
            E.cv_score(E.Sample.from_values([4]), B, 0.5)

    def test_hand_example_binomial(self):
        got = E.cv_score(E.Sample.from_values([0, 1]), B, 0.5)
        want = naive_cv([0, 1], B, 0.5, 60)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kernel,h", [(B, 0.3), (P, 0.7), (NB, 0.4), (T1, 1.5), (K.triangular(2), 0.8)])
    def test_matches_naive_double_loop(self, kernel, h):
        rng = np.random.default_rng(7)
        for _ in range(6):
            values = rng.poisson(2.5, rng.integers(2, 22)).tolist()
            sample = E.Sample.from_values(values)
            got = E.cv_score(sample, kernel, h)
            want = naive_cv(values, kernel, h, E.default_eval_hi(sample) + 80)
            assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=18),
        pick=st.sampled_from(["binomial", "poisson", "negbin", "triangular"]),
        h=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_grouped_equals_naive_property(self, values, pick, h):
        kernel = {"binomial": B, "poisson": P, "negbin": NB, "triangular": T1}[pick]
        sample = E.Sample.from_values(values)
        got = E.cv_score(sample, kernel, h)
        want = naive_cv(values, kernel, h, E.default_eval_hi(sample) + 80)
        assert got == pytest.approx(want, abs=1e-12)

    def test_near_dirac_limit_on_ties(self):
        # all four observations equal: term1 -> 1 and the pair sum counts
        # every ordered pair, so CV -> 1 - 2
        sample = E.Sample.from_values([2, 2, 2, 2])
        assert E.cv_score(sample, T1, 1e-6) == pytest.approx(-1.0, abs=1e-4)

    def test_large_counts_name_the_target_limit(self):
        # the first term of a diffuse kernel would need targets past 1e5
        sample = E.Sample.from_values([100500, 100502, 100507])
        for kernel in (P, NB):
            with pytest.raises(RuntimeError, match=r"targets past 100000.*largest value is 100507"):
                E.cv_score(sample, kernel, 0.1)
        assert math.isfinite(E.cv_score(sample, B, 0.1))


class TestBatchedCv:
    @pytest.mark.parametrize("kernel", [D, B, P, NB, T1, K.triangular(3)])
    def test_array_h_grid_equals_stacked_scalar_grids(self, kernel):
        hs = np.array([0.0, 0.0] if kernel is D else np.geomspace(1e-3, 1.0 if kernel is B else 7.0, 29))
        xs, ys = np.arange(0, 40), np.array([0, 1, 2, 5, 9, 17, 33, 45])
        grids = K._GridTerms(kernel, xs, ys).at(hs)
        assert grids.shape == (len(hs), len(xs), len(ys))
        want = np.stack([K.pmf_grid(kernel, xs, float(h), ys) for h in hs])
        np.testing.assert_array_equal(grids, want)

    def test_array_h_validates_every_bandwidth(self):
        sample = E.Sample.from_values([0, 1, 4])
        with pytest.raises(ValueError, match=r"binomial kernel needs h in \(0, 1\], got 1\.5"):
            E.cv_score(sample, B, [0.5, 1.5])
        with pytest.raises(ValueError, match=r"poisson kernel needs h > 0, got -0\.5"):
            E.cv_score(sample, P, np.array([0.5, 1.0, -0.5]))
        with pytest.raises(TypeError):
            K.pmf_grid(B, [0, 1], [0.5, 1.5], [0, 1])  # one bandwidth per grid
        assert K.pmf_grid(P, [0, 1], 0.5, [0, 1, 2]).shape == (2, 3)

    @pytest.mark.parametrize("kernel,h_hi", [(B, 1.0), (P, 5.0), (NB, 5.0), (T1, 10.0)])
    def test_grid_equals_cv_score_and_naive(self, kernel, h_hi):
        rng = np.random.default_rng(31)
        hs = np.geomspace(1e-3, h_hi, 12)
        for _ in range(4):
            values = rng.poisson(2.5, rng.integers(2, 20)).tolist()
            sample = E.Sample.from_values(values)
            got = E.cv_score(sample, kernel, hs)
            want = [E.cv_score(sample, kernel, float(h)) for h in hs]
            assert got.tolist() == want
            for h, score in zip(hs[::4], got[::4]):
                naive = naive_cv(values, kernel, float(h), E.default_eval_hi(sample) + 80)
                assert score == pytest.approx(naive, abs=1e-12)

    @pytest.mark.parametrize("kernel", [P, NB])
    def test_tail_extension_at_h5(self, kernel):
        values = [0, 1, 1, 2, 3, 3, 4, 7]
        sample = E.Sample.from_values(values)
        # the first-term summand at the default bound exceeds the
        # truncation threshold, so the range must be extended
        assert E.kernel_estimate_raw(sample, kernel, 5.0).values[-1] > 1e-12
        hs = np.array([0.5, 2.0, 5.0])
        got = E.cv_score(sample, kernel, hs)
        assert got.tolist() == [E.cv_score(sample, kernel, float(h)) for h in hs]
        assert got[-1] == reference_cv_score(sample, kernel, 5.0)
        assert got[-1] == pytest.approx(naive_cv(values, kernel, 5.0, E.default_eval_hi(sample) + 80), abs=1e-12)

    @pytest.mark.parametrize("kernel", [B, P, NB, T1])
    def test_wide_sample_crosses_cell_budget(self, kernel, monkeypatch):
        rng = np.random.default_rng(5)
        sample = E.Sample.from_values(rng.integers(0, 80, 150))
        cells = (E.default_eval_hi(sample) + 1) * len(sample.distinct_values)
        hs = np.geomspace(0.01, 1.0, 7)
        assert cells < E._CV_BATCH_CELLS < cells * len(hs)
        sizes = []
        at = K._GridTerms.at

        def recording_at(terms, h):
            grid = at(terms, h)
            sizes.append(grid.size)
            return grid

        monkeypatch.setattr(K._GridTerms, "at", recording_at)
        got = E.cv_score(sample, kernel, hs)
        assert max(sizes) <= E._CV_BATCH_CELLS
        assert got.tolist() == [E.cv_score(sample, kernel, float(h)) for h in hs]

    def test_wide_sample_peak_memory_is_one_evaluation(self):
        # a sample wider than the cell budget runs one bandwidth per pass and
        # must not hold more kernel grids at once than cv_score does
        import tracemalloc

        sample = E.Sample.from_values(np.random.default_rng(9).integers(0, 400, 400))
        assert (E.default_eval_hi(sample) + 1) * len(sample.distinct_values) > E._CV_BATCH_CELLS

        def peak(evaluate):
            tracemalloc.start()
            try:
                evaluate()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        single = peak(lambda: E.cv_score(sample, B, 0.3))
        batched = peak(lambda: E.cv_score(sample, B, [0.01, 0.1, 0.3, 1.0]))
        assert batched < 1.05 * single

    def test_negbin_batch_peak_memory_is_one_evaluation(self):
        # the bound above, for negbin: its bandwidths extend the first term to
        # different depths and the evaluator keeps every tail range's terms,
        # but every grid comes from the evaluator's scratch
        sample = E.Sample.from_values(np.random.default_rng(9).integers(0, 400, 400))
        single = tracemalloc_peak(lambda: E.cv_score(sample, NB, 0.3))
        batched = tracemalloc_peak(lambda: E.cv_score(sample, NB, [0.01, 0.1, 0.3, 1.0]))
        assert batched < 1.05 * single

    @pytest.mark.parametrize("kernel", [B, P, NB, T1])
    def test_wide_sample_score_reuses_the_evaluators_grids(self, kernel):
        # once the span's terms and scratch exist, a score allocates no grid:
        # its peak stays below the bytes of one first-range grid
        sample = E.Sample.from_values(np.random.default_rng(9).integers(0, 400, 400))
        evaluator = E._CvEvaluator([sample], kernel)
        evaluator.step([0.3])
        peak = tracemalloc_peak(lambda: evaluator.step([0.5]))
        assert peak < evaluator.rows[0] * sample.distinct_values.size * 8

    def test_cv_score_equals_reference_loop(self):
        rng = np.random.default_rng(8)
        for kernel, h in [(B, 0.37), (P, 4.2), (NB, 4.9), (T1, 2.5), (K.triangular(2), 0.3)]:
            for _ in range(5):
                sample = E.Sample.from_values(rng.poisson(3.0, rng.integers(2, 40)))
                assert E.cv_score(sample, kernel, h) == reference_cv_score(sample, kernel, h)

    def test_grid_needs_two_observations(self):
        with pytest.raises(ValueError):
            E.cv_score(E.Sample.from_values([4]), B, [0.5])

    def test_two_dimensional_bandwidths_rejected(self):
        with pytest.raises(ValueError, match=r"scalar or a 1-d array, got shape \(1, 2\)"):
            E.cv_score(E.Sample.from_values([0, 1, 4]), B, [[0.1, 0.5]])

    def test_selection_equals_reference_loop(self):
        from dks.risk import PoissonPmf
        from dks.simulation import replicate_stream, sample_from_pmf

        f = PoissonPmf(2.0)
        search = {T1: E.SearchConfig(0.5, 10.0)}
        for r in range(20):
            n = (15, 25, 50, 100)[r % 4]
            sample = sample_from_pmf(f, n, replicate_stream(42, n, r))
            for kernel in (B, P, NB, T1):
                cfg = search.get(kernel, E.default_search_config(kernel.family))
                sel = E.select_bandwidth(sample, kernel, cfg)
                h_cv, curve = reference_select(sample, kernel, cfg)
                assert sel.h_cv == h_cv
                assert sel.cv_curve == curve


def hex_curve(curve):
    return [(h.hex(), score.hex()) for h, score in curve]


class TestCvEvaluator:
    @pytest.mark.parametrize("tail_eps", [float("nan"), 0.0, -1.0, 2.0])
    def test_tail_eps_outside_unit_interval_rejected(self, tail_eps):
        # the evaluator's truncation is the constant _CV_TAIL_EPS; a tail_eps
        # given to the risk functions is checked by kernel_support
        for kernel in (P, NB):
            with pytest.raises(ValueError, match=r"tail_eps must be in \(0, 1\)"):
                K.kernel_support(kernel, 3, 4.0, tail_eps)

    @pytest.mark.parametrize("kernel", [D, B, P, NB, T1, K.triangular(3)])
    def test_cached_terms_give_the_grid_bitwise(self, kernel):
        xs, ys = np.arange(0, 40), np.array([0, 1, 2, 5, 9, 17, 33, 45])
        # one set of terms, evaluated at a batch and then at each bandwidth in
        # turn, against grids built from scratch
        terms = K._GridTerms(kernel, xs, ys)
        hs = np.array([0.0, 0.0] if kernel is D else np.geomspace(1e-3, 1.0 if kernel is B else 7.0, 9))
        fresh = [K.pmf_grid(kernel, xs, h, ys) for h in hs]
        np.testing.assert_array_equal(terms.at(hs), np.stack(fresh))
        for h, want in zip(hs, fresh):
            np.testing.assert_array_equal(terms.at(np.array([h]))[0], want)

    def test_terms_built_once_per_target_range(self, monkeypatch):
        # one selection builds the h-independent terms of each span once,
        # however many bandwidths it evaluates
        built = []

        class CountingTerms(K._GridTerms):
            def __init__(self, kernel, xs, ys):
                built.append((int(xs[0]), len(xs)))
                super().__init__(kernel, xs, ys)

        monkeypatch.setattr(E, "_GridTerms", CountingTerms)
        sample = E.Sample.from_values([0, 1, 1, 2, 3, 3, 4, 7])
        sel = E.select_bandwidth(sample, P, E.SearchConfig(3.0, 6.0, grid_points=16))
        assert len(sel.cv_curve) == 16 + 42
        rows = E.default_eval_hi(sample) + 1
        # the grid pass's first bandwidth, h = 3, grows the span in steps to
        # the rows that its first term needs; every later pass reuses its terms
        tail = reference_tail_rows(sample, P, 3.0)
        assert tail > E._TAIL_STEP
        assert built == [(0, rows + grown) for grown in range(0, tail + 1, E._TAIL_STEP)]

    @pytest.mark.parametrize("kernel", [P, NB])
    def test_long_first_term_builds_grids_linearly_in_its_rows(self, kernel, monkeypatch):
        # a first term that runs a thousand rows past the first range of a
        # sample whose grid is past the cell budget grows the span to
        # _TAIL_ROWS rows, then goes on in fresh _TAIL_ROWS-row grids, one per
        # block of rows that it sums
        sample = E.Sample.from_values([40000, 40005, 40017])
        want = reference_cv_score(sample, kernel, 1.0)
        tail = reference_tail_rows(sample, kernel, 1.0)
        built = []

        class CountingTerms(K._GridTerms):
            def __init__(self, kernel, xs, ys):
                built.append((int(xs[0]), len(xs)))
                super().__init__(kernel, xs, ys)

        monkeypatch.setattr(E, "_GridTerms", CountingTerms)
        monkeypatch.setattr(K, "_GridTerms", CountingTerms)
        assert E.cv_score(sample, kernel, 1.0) == want
        rows = E.default_eval_hi(sample) + 1
        spans = [(0, rows + grown) for grown in range(0, E._TAIL_ROWS + 1, E._TAIL_STEP)]
        tails = [(start, E._TAIL_ROWS) for start in range(rows + E._TAIL_ROWS, rows + tail, E._TAIL_ROWS)]
        assert tail > 10 * E._TAIL_ROWS and built == spans + tails

    @pytest.mark.parametrize(
        "kernel, cfg",
        [(P, E.SearchConfig(3.0, 6.0, 16)), (NB, E.SearchConfig(3.0, 6.0, 16)), (B, E.SearchConfig(1e-4, 1.0, 16))],
    )
    def test_step_score_does_not_depend_on_history(self, kernel, cfg):
        # a step runs on the span that the evaluator holds, grown by the
        # steps before it or grown by its own first term; its score must not
        # show which grids it came from.  The binomial first term extends on
        # these samples below h = 0.1 only.
        rng = np.random.default_rng(21)
        hs = np.geomspace(cfg.h_min, cfg.h_max, cfg.grid_points)
        histories = set()
        for values in ([0, 1, 1, 2, 3, 3, 4, 7], rng.poisson(1.5, 30).tolist()):
            sample = E.Sample.from_values(values)
            for h in hs:
                want = E._CvEvaluator([sample], kernel).step([h])[0].hex()
                assert E._CvEvaluator([sample], kernel).scores(np.array([h]))[0][0].hex() == want
                for before in (hs[0], hs[-1]):
                    evaluator = E._CvEvaluator([sample], kernel)
                    evaluator.step([before])
                    histories.add(evaluator.span > evaluator.rows[0])
                    assert evaluator.step([h])[0].hex() == want
        assert histories == ({True, False} if kernel is B else {True})

    def test_fused_step_names_the_target_limit(self):
        # a step on a span grown past the first range is checked against the
        # target limit too
        sample = E.Sample.from_values([100500, 100502, 100507])
        for kernel in (P, NB):
            evaluator = E._CvEvaluator([sample], kernel)
            evaluator.span += E._TAIL_ROWS
            with pytest.raises(RuntimeError, match=r"targets past 100000.*largest value is 100507"):
                evaluator.step([0.1])
            assert len(evaluator._terms.X) == evaluator.rows[0] + E._TAIL_ROWS

    def test_one_grid_per_extending_step(self, monkeypatch):
        # every negbin first term extends; the grid pass settles the span, so
        # each golden-section step builds one grid, at that span
        grids, per_step = [], []
        at, step = K._GridTerms.at, E._CvEvaluator.step

        def counting_at(terms, h):
            grids.append((int(terms.X[0, 0]), len(terms.X)))
            return at(terms, h)

        def counting_step(evaluator, hs):
            start = len(grids)
            result = step(evaluator, hs)
            per_step.append(grids[start:])
            return result

        monkeypatch.setattr(K._GridTerms, "at", counting_at)
        monkeypatch.setattr(E._CvEvaluator, "step", counting_step)
        for seed in range(3):
            sample = E.Sample.from_values(np.random.default_rng(seed).poisson(2.0, 50))
            span = E.default_eval_hi(sample) + 1 + reference_tail_rows(sample, NB, 1e-4)
            per_step.clear()
            E.select_bandwidth(sample, NB)
            assert per_step == [[(0, span)]] * 42

    def test_scores_match_naive_double_loop(self):
        rng = np.random.default_rng(12)
        for kernel, hs in [(B, [0.05, 0.6]), (P, [0.3, 4.8]), (NB, [0.2, 5.0]), (K.triangular(2), [0.4, 3.0])]:
            for _ in range(3):
                values = rng.poisson(2.0, rng.integers(2, 18)).tolist()
                sample = E.Sample.from_values(values)
                evaluator = E._CvEvaluator([sample], kernel)
                got = evaluator.scores(np.array(hs))[0] + [evaluator.step([h])[0] for h in hs]
                for h, score in zip(hs + hs, got):
                    naive = naive_cv(values, kernel, h, E.default_eval_hi(sample) + 80)
                    assert score == pytest.approx(naive, abs=1e-12)

    @pytest.mark.parametrize("kernel", [P, NB])
    def test_tail_extending_selection_equals_reference(self, kernel):
        # a search domain around h = 5 makes every probe extend the first
        # term past default_eval_hi
        cfg = E.SearchConfig(3.0, 6.0, grid_points=16)
        rng = np.random.default_rng(21)
        for _ in range(3):
            values = rng.poisson(1.5, rng.integers(8, 40)).tolist()
            sample = E.Sample.from_values(values)
            assert E.kernel_estimate_raw(sample, kernel, 5.0).values[-1] > 1e-12
            sel = E.select_bandwidth(sample, kernel, cfg)
            h_cv, curve = reference_select(sample, kernel, cfg)
            assert sel.h_cv.hex() == h_cv.hex()
            assert hex_curve(sel.cv_curve) == hex_curve(curve)

    @pytest.mark.parametrize("kernel", [B, P, NB, K.triangular(2)])
    def test_wide_sample_selection_equals_reference(self, kernel):
        # wider than the cell budget for one bandwidth: the grid pass runs
        # one bandwidth per pass
        sample = E.Sample.from_values(np.random.default_rng(9).integers(0, 300, 300))
        assert (E.default_eval_hi(sample) + 1) * len(sample.distinct_values) > E._CV_BATCH_CELLS
        cfg = E.default_search_config(kernel.family)
        cfg = E.SearchConfig(cfg.h_min, cfg.h_max, grid_points=16)
        sel = E.select_bandwidth(sample, kernel, cfg)
        h_cv, curve = reference_select(sample, kernel, cfg)
        assert sel.h_cv.hex() == h_cv.hex()
        assert hex_curve(sel.cv_curve) == hex_curve(curve)

    def test_triangular_arm2_selection_equals_reference(self):
        from dks.risk import PoissonPmf
        from dks.simulation import replicate_stream, sample_from_pmf

        kernel = K.triangular(2)
        for r, cfg in enumerate([E.default_search_config(kernel.family), E.SearchConfig(0.5, 10.0)] * 3):
            n = (15, 25, 50)[r % 3]
            sample = sample_from_pmf(PoissonPmf(2.0), n, replicate_stream(17, n, r))
            sel = E.select_bandwidth(sample, kernel, cfg)
            h_cv, curve = reference_select(sample, kernel, cfg)
            assert sel.h_cv.hex() == h_cv.hex()
            assert hex_curve(sel.cv_curve) == hex_curve(curve)


def lockstep_samples():
    """Eight samples of mixed shapes: the first selects on a domain bound
    (binomial h = 1, triangular(p=1) h = 10), the second's negbin first term
    needs more than _TAIL_ROWS rows past its first range, and the rest
    differ in their maxima and distinct-value counts."""
    from dks.risk import PoissonPmf
    from dks.simulation import replicate_stream, sample_from_pmf

    def draw(n, r):
        return sample_from_pmf(PoissonPmf(2.0), n, replicate_stream(42, n, r))

    return [
        draw(15, 0),
        E.Sample.from_values(np.random.default_rng(4).poisson(60, 12)),
        draw(100, 1),
        E.Sample.from_values(np.random.default_rng(5).integers(0, 30, 40)),
        E.Sample.from_values([0, 1]),
        draw(50, 3),
        E.Sample.from_values([5, 5, 5, 9]),
        draw(25, 5),
    ]


def overflow_batch():
    """One batch of three samples whose step grid fits _CV_BATCH_CELLS with
    room for _TAIL_ROWS rows, but not with the 80 that the Poisson(60)
    draw's negbin first term needs."""
    return [
        E.Sample.from_values(np.random.default_rng(4).poisson(60, 12)),
        E.Sample.from_values(range(0, 58, 2)),
        E.Sample.from_values(np.random.default_rng(6).integers(0, 30, 40)),
    ]


class TestLockstep:
    @pytest.mark.parametrize("kernel", [B, P, NB, T1, K.triangular(2)])
    def test_batch_equals_each_sample_alone(self, kernel):
        samples = lockstep_samples()
        alone = [E.select_bandwidth(sample, kernel) for sample in samples]
        if kernel in (B, T1):
            assert alone[0].h_cv == E.default_search_config(kernel.family).h_max
        for R in (1, 2, 3, 5, 8):
            batch = list(E.select_bandwidths(samples[:R], kernel))
            assert len(batch) == R
            for got, want in zip(batch, alone):
                assert got.h_cv.hex() == want.h_cv.hex()
                assert hex_curve(got.cv_curve) == hex_curve(want.cv_curve)

    def test_batch_steps_reach_a_second_tail(self):
        # the second sample's negbin first term grows the batch's span past
        # _TAIL_ROWS rows beyond its first range
        samples = lockstep_samples()[:3]
        evaluator = E._CvEvaluator(samples, NB)
        h_at, cv_at = E._curves(evaluator, np.geomspace(1e-4, 5.0, 64))
        assert evaluator.span > evaluator.rows[1] + E._TAIL_ROWS
        for sample, h_row, cv_row in zip(samples, h_at, cv_at):
            want = E.select_bandwidth(sample, NB).cv_curve
            assert hex_curve(sorted(zip(h_row.tolist(), cv_row.tolist()))) == hex_curve(want)

    def test_steps_extend_several_samples_at_once(self, monkeypatch):
        # on Poisson(40) draws the negbin first terms of several samples of
        # one batch run past _TAIL_ROWS rows beyond their first ranges
        from dks.risk import PoissonPmf
        from dks.simulation import replicate_stream, sample_from_pmf

        samples = [sample_from_pmf(PoissonPmf(40.0), 30, replicate_stream(7, 30, r)) for r in range(4)]
        alone = [E.select_bandwidth(sample, NB) for sample in samples]
        evaluators = []

        class RecordingEvaluator(E._CvEvaluator):
            def __init__(self, samples, kernel):
                evaluators.append(self)
                super().__init__(samples, kernel)

        monkeypatch.setattr(E, "_CvEvaluator", RecordingEvaluator)
        batch = list(E.select_bandwidths(samples, NB))
        (evaluator,) = evaluators
        assert sum(evaluator.span - rows > E._TAIL_ROWS for rows in evaluator.rows) > 1
        for got, want in zip(batch, alone):
            assert got.h_cv.hex() == want.h_cv.hex()
            assert hex_curve(got.cv_curve) == hex_curve(want.cv_curve)

    def test_batch_past_its_grid_room_stays_in_lockstep(self, monkeypatch):
        # the first sample's negbin first term runs past the _TAIL_ROWS rows
        # that the batch's grid holds for it, so its tail goes on in grids of
        # its own while the batch keeps one evaluator; its poisson first term
        # stays within those rows
        samples = overflow_batch()
        assert len(list(E._batches(samples))) == 1
        evaluators, tails = [], []
        tail_sums = E._CvEvaluator._tail_sums

        class CountingEvaluator(E._CvEvaluator):
            def __init__(self, samples, kernel):
                evaluators.append(len(samples))
                super().__init__(samples, kernel)

            def _tail_sums(self, b, h, start):
                tails.append(b)
                return tail_sums(self, b, h, start)

        for kernel, tailed in ((NB, {0}), (P, set())):
            alone = [E.select_bandwidth(sample, kernel) for sample in samples]
            evaluators.clear()
            tails.clear()
            monkeypatch.setattr(E, "_CvEvaluator", CountingEvaluator)
            batch = list(E.select_bandwidths(samples, kernel))
            monkeypatch.undo()
            assert evaluators == [3] and set(tails) == tailed
            for got, want in zip(batch, alone):
                assert got.h_cv.hex() == want.h_cv.hex()
                assert hex_curve(got.cv_curve) == hex_curve(want.cv_curve)

    def test_batches_are_selected_as_they_are_asked_for(self, monkeypatch):
        # a caller that takes one selection at a time holds one batch's curves
        evaluators = []

        class CountingEvaluator(E._CvEvaluator):
            def __init__(self, samples, kernel):
                evaluators.append(len(samples))
                super().__init__(samples, kernel)

        monkeypatch.setattr(E, "_CvEvaluator", CountingEvaluator)
        samples = lockstep_samples() * 40
        first = len(next(E._batches(samples)))
        selections = E.select_bandwidths(samples, P, E.SearchConfig(1e-3, 5.0, grid_points=16))
        assert evaluators == []
        next(selections)
        assert evaluators == [first]
        assert len(list(selections)) == len(samples) - 1 and len(evaluators) > 1

    def test_cv_score_is_the_batch_of_one(self):
        samples = lockstep_samples()
        hs = np.geomspace(1e-3, 5.0, 9)
        evaluator = E._CvEvaluator(samples, P)
        for sample, scores in zip(samples, evaluator.scores(hs)):
            assert scores == E.cv_score(sample, P, hs).tolist()
        steps = evaluator.step(hs[: len(samples)])
        assert steps == [E.cv_score(sample, P, h) for sample, h in zip(samples, hs)]

    def test_batch_names_the_target_limit(self):
        sample = lockstep_samples()[2]
        batch = [sample, E.Sample.from_values([100500, 100502, 100507]), sample]
        for kernel in (P, NB):
            with pytest.raises(RuntimeError, match=r"targets past 100000.*largest value is 100507"):
                list(E.select_bandwidths(batch, kernel))

    def test_batches_fit_the_cell_budget(self):
        # a step grid holds every sample of its batch, with room for
        # _TAIL_ROWS rows past the longest first range
        samples = lockstep_samples() * 40
        batches = list(E._batches(samples))
        assert [s for batch in batches for s in batch] == samples and len(batches) > 1
        assert max(len(batch) for batch in batches) > 1
        for batch in batches:
            span = max(E.default_eval_hi(s) + 1 + E._TAIL_ROWS for s in batch)
            cols = max(s.distinct_values.size for s in batch)
            assert len(batch) == 1 or len(batch) * span * cols <= E._CV_BATCH_CELLS

    @pytest.mark.parametrize("kernel", [B, P, NB, T1])
    def test_grid_pass_spans_the_batch(self, kernel, monkeypatch):
        # a batch's grid pass builds one grid for all of its samples per pass:
        # its first bandwidth alone, once per span that it reaches, then chunks
        # of J bandwidths; every grid, the batch's or a sample's tail, stays
        # within the cell budget
        grids = []
        at = K._GridTerms.at

        def recording_at(terms, hs):
            grid = at(terms, hs)
            grids.append(grid.shape)
            return grid

        monkeypatch.setattr(K._GridTerms, "at", recording_at)
        hs = np.geomspace(1e-3, 1.0, 64)
        chunked = False
        # the full batches of a long run leave room for one bandwidth a pass
        # once a poisson or negbin span has grown; a short batch has room for
        # chunks
        for batch in [*E._batches(lockstep_samples() * 40), lockstep_samples()[:3]]:
            grids.clear()
            evaluator = E._CvEvaluator(batch, kernel)
            evaluator.scores(hs)
            firsts = [shape for shape in grids if len(shape) == 4]
            growths = len({shape[2] for shape in firsts}) - 1
            J = max(shape[1] for shape in firsts)
            assert len(firsts) == 1 + growths + math.ceil(63 / J)
            assert all(shape[0] == len(batch) for shape in firsts)
            assert max(math.prod(shape) for shape in grids) <= E._CV_BATCH_CELLS
            chunked |= len(batch) > 1 and 1 < J < 64
        assert chunked

    def test_wide_batch_scratch_stays_within_one_evaluation(self, monkeypatch):
        # the largest scratch buffer of a batch of wide samples stays within the
        # cell budget or one sample's one-bandwidth grid, fused with its first tail
        sizes = []

        class RecordingScratch(K._Scratch):
            def get(self, key, shape, dtype=np.float64):
                sizes.append(math.prod(shape))
                return super().get(key, shape, dtype)

        monkeypatch.setattr(E, "_Scratch", RecordingScratch)
        samples = [E.Sample.from_values(np.random.default_rng(seed).integers(0, 400, 400)) for seed in range(9, 17)]
        one = max((E.default_eval_hi(s) + 1 + E._TAIL_ROWS) * s.distinct_values.size for s in samples)
        for kernel in (B, P):
            cfg = E.default_search_config(kernel.family)
            list(E.select_bandwidths(samples, kernel, E.SearchConfig(cfg.h_min, cfg.h_max, grid_points=16)))
        assert 0 < max(sizes) <= max(E._CV_BATCH_CELLS, one)


# SHA-256 of the float-hex cv_curve lines that select_bandwidths gives on each
# seed-42 table-2/3 cell at 40 replicates
PINNED_CURVES = {
    "negbin n=15": "114c7518764748b0456d3c43898602d6d98a3b5289dbcdb98e0c13a7daea23c3",
    "negbin n=100": "067b13fb058f95662f4202d4f1bb4b3ebc3cf752361d82ff2d100711da780b91",
    "poisson n=15": "1023ce87e952602ad534130489a264bd137254ff46773f0eed9ba6949c83c98f",
    "poisson n=100": "780fdeed8e1e470e7eb8af39792d846879794ab54c207cd6d7ccbb090abf8da7",
    "binomial n=15": "ec5ab80e09bacf6c51988b973130d1657b5770a48cd08dc2b088c60048387eb3",
    "binomial n=100": "fffd4b5cc65e2ab6190f46b61b917728a0d6fd7e9090b2878478011a85883efc",
    "triangular(p=1) n=15": "841252b7a7a1101915c8003471c8de3776df4dfe21f12c2a4be6e46bdcacb3df",
    "triangular(p=1) n=100": "20083e1c83e6350c594c827e26ee92e32e63898c28e15dfeafea6c6a890a18ff",
}

# The same, for samples whose first CV term needs more than _TAIL_ROWS rows
# past the first range (negbin on the Poisson(40) and Poisson(60) draws), and
# for the batch of overflow_batch(), whose Poisson(60) draw's negbin first term
# runs past the batch's room
PINNED_WIDE_CURVES = {
    "wide negbin": "9d9a907d7ee6c54a1f4d0373de199c6c5886c185f6e59359ebaedf53e7b0d244",
    "wide poisson": "a40f11817eadc6414fd6414a5cbb68f8bc4f257c94799a01bc1ee94627a94593",
    "mixed negbin": "25e738634d3c77cc1ac768444da5328809a04d78e0a2fab511077b011fb0820a",
    "mixed poisson": "1ee64e034fe2f0076d6799dc08596a5ec4da6ef2850c694e722fc1e5b1cbb677",
}


def assert_pinned(batches, pinned):
    # batches maps each label to the (samples, kernel, config) that it selects
    import hashlib

    import scipy

    got = {}
    for label, (samples, kernel, config) in batches.items():
        digest = hashlib.sha256()
        for sel in E.select_bandwidths(samples, kernel, config):
            digest.update(f"{' '.join(f'{h.hex()}:{s.hex()}' for h, s in sel.cv_curve)}\n".encode())
        got[label] = digest.hexdigest()
    assert got.keys() == pinned.keys()
    changed = [label for label in pinned if got[label] != pinned[label]]
    assert not changed, (f"the cv_curve bits of {changed[0]} changed (numpy {np.__version__}, "
                         f"scipy {scipy.__version__}; {len(changed)} of {len(got)} labels differ)")


class TestPinnedBits:
    def test_study_cells_keep_their_cv_curves(self):
        # a change that moves any low bit of a selection, such as a re-associated
        # sum, changes a digest even where the 1e-12 oracles still pass
        from dks import reproduce
        from dks.simulation import replicate_stream, sample_from_pmf

        config = reproduce.table23_config(42)
        batches = {}
        for kernel in config.kernels:
            for n in (15, 100) if kernel != D else ():
                samples = [sample_from_pmf(config.true_pmf, n, replicate_stream(42, n, r)) for r in range(40)]
                batches[f"{kernel.label} n={n}"] = (samples, kernel, config.search_for(kernel))
        assert_pinned(batches, PINNED_CURVES)

    def test_wide_and_overflowing_batches_keep_their_cv_curves(self):
        from dks.risk import PoissonPmf
        from dks.simulation import replicate_stream, sample_from_pmf

        wide = [lockstep_samples()[1]]
        wide += [sample_from_pmf(PoissonPmf(40.0), 30, replicate_stream(7, 30, r)) for r in range(4)]
        batches = {}
        for kernel in (NB, P):
            batches[f"wide {kernel.label}"] = (wide, kernel, None)
            batches[f"mixed {kernel.label}"] = (overflow_batch(), kernel, None)
        assert_pinned(batches, PINNED_WIDE_CURVES)


settings_facts = settings(max_examples=60, deadline=None, derandomize=True)
shapes = st.tuples(st.integers(1, 6), st.integers(1, 40), st.integers(1, 24), st.integers(0, 8), st.integers(0, 8))


class TestNumericFacts:
    """The floating-point facts the lockstep evaluator relies on.  Zero padding
    is not among them: a product over zero-padded rows or columns changes the
    low bits, so no reduction runs over padding."""

    @settings_facts
    @given(shape=shapes, seed=st.integers(0, 2**32 - 1))
    def test_stacked_matmul_equals_per_slice_products(self, shape, seed):
        J, rows, k, _, _ = shape
        rng = np.random.default_rng(seed)
        grids, cs = rng.random((J, rows, k)), rng.integers(1, 9, k).astype(float)
        want = np.stack([grid @ cs for grid in grids])
        np.testing.assert_array_equal(np.matmul(grids, cs), want)
        pairs = rng.random((J, k, k))
        np.testing.assert_array_equal(cs @ pairs, np.stack([cs @ pair for pair in pairs]))

    @settings_facts
    @given(shape=shapes, seed=st.integers(0, 2**32 - 1))
    def test_stacked_row_dots_equal_ndarray_dot(self, shape, seed):
        # the evaluator runs each sum as its own dot; stacking them would rely on this
        J, _, k, _, _ = shape
        rng = np.random.default_rng(seed)
        rows, cs = rng.random((J, k)), rng.random(k)
        want = [row.dot(cs) for row in rows]
        assert np.matmul(rows[:, None, :], cs[:, None])[:, 0, 0].tolist() == want
        assert np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0].tolist() == [row.dot(row) for row in rows]

    @settings_facts
    @given(shape=shapes, seed=st.integers(0, 2**32 - 1))
    def test_product_on_a_padded_slice_equals_a_contiguous_copy(self, shape, seed):
        _, rows, k, pad_cols, pad_rows = shape
        rng = np.random.default_rng(seed)
        buffer, cs = rng.random((rows + pad_rows, k + pad_cols)), rng.random(k)
        view = buffer[:rows, :k]
        assert (view @ cs).tolist() == (np.ascontiguousarray(view) @ cs).tolist()
        square = rng.random((k + pad_cols, k + pad_cols))[:k, :k]
        copy = np.ascontiguousarray(square)
        assert (cs @ square).tolist() == (cs @ copy).tolist()
        assert cs.dot(square.diagonal()) == cs.dot(copy.diagonal())

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        values=st.lists(st.lists(st.integers(0, 30), min_size=1, max_size=12), min_size=1, max_size=4),
        pick=st.sampled_from(["dirac", "binomial", "poisson", "negbin", "triangular", "triangular3"]),
        u=st.floats(0.0, 1.0),
    )
    def test_padded_batch_grid_equals_each_samples_grid(self, values, pick, u):
        kernel = {"dirac": D, "binomial": B, "poisson": P, "negbin": NB, "triangular": T1,
                  "triangular3": K.triangular(3)}[pick]
        samples = [E.Sample.from_values(v) for v in values]
        evaluator = E._CvEvaluator([s for s in samples if s.n > 1] or [E.Sample.from_values([0, 1])], kernel)
        rows = max(evaluator.rows) + 7
        hs = np.array([[0.0] if kernel is D else [1e-3 + u * (0.999 if kernel is B else 6.0)] for _ in evaluator.us])
        hs[::2] *= 0.5
        grids = K._GridTerms(kernel, np.arange(rows), evaluator.points).at(hs)
        for grid, us, h in zip(grids, evaluator.us, hs):
            own = K._GridTerms(kernel, np.arange(rows), us).at(h)
            np.testing.assert_array_equal(grid[0, :, : us.size], own[0])

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(shape=shapes, blocks=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_product_over_whole_blocks_equals_fresh_blocks(self, shape, blocks, seed):
        # the evaluator sums a first term's tail by one product over every
        # whole 16-row block that its grid holds; a reference builds each
        # block as its own grid
        J, rows, k, pad_cols, pad_rows = shape
        rng = np.random.default_rng(seed)
        end = rows + 16 * blocks
        buffer, cs = rng.random((J, end + pad_rows, k + pad_cols)), rng.random(k)
        sums = np.empty((J, end + pad_rows))
        np.matmul(buffer[:, rows:end, :k], cs, out=sums[:, rows:end])
        for j in range(J):
            for start in range(rows, end, 16):
                block = np.ascontiguousarray(buffer[j, start : start + 16, :k])
                assert sums[j, start : start + 16].tolist() == (block @ cs).tolist()

    @settings_facts
    @given(shape=shapes, seed=st.integers(0, 2**32 - 1))
    def test_wrap_take_on_in_range_rows_equals_the_default_gather(self, shape, seed):
        J, rows, k, _, _ = shape
        rng = np.random.default_rng(seed)
        grids, index = rng.random((J, rows, k)), rng.integers(0, rows, k)
        out = np.empty((J, k, k))
        np.testing.assert_array_equal(grids.take(index, axis=1, out=out, mode="wrap"), grids.take(index, axis=1))


class TestSelectBandwidth:
    def test_search_config_validation(self):
        with pytest.raises(ValueError):
            E.SearchConfig(0.0, 1.0)
        with pytest.raises(ValueError):
            E.SearchConfig(0.5, 0.1)
        with pytest.raises(ValueError):
            E.SearchConfig(0.1, 1.0, grid_points=8)
        with pytest.raises(ValueError, match="grid_points must be <= 10000, got 10001"):
            E.SearchConfig(0.1, 1.0, grid_points=E._MAX_GRID_POINTS + 1)
        assert E.SearchConfig(0.1, 1.0, grid_points=E._MAX_GRID_POINTS).grid_points == 10_000

    def test_binomial_domain_capped(self):
        with pytest.raises(ValueError):
            E.select_bandwidth(SAFOU, B, E.SearchConfig(0.01, 2.0))

    def test_no_selection_for_dirac(self):
        with pytest.raises(ValueError):
            E.select_bandwidth(SAFOU, D)

    def test_selected_point_attains_curve_minimum(self):
        sel = E.select_bandwidth(SAFOU, T1)
        best = min(score for _, score in sel.cv_curve)
        picked = [score for h, score in sel.cv_curve if h == sel.h_cv]
        assert picked and picked[0] == best

    def test_finer_grid_never_worse(self):
        # the fine grid contains the coarse one, so its attained minimum
        # cannot be larger
        coarse = np.geomspace(1e-3, 5.0, 33)
        fine = np.geomspace(1e-3, 5.0, 65)
        sample = E.Sample.from_values([0, 1, 1, 2, 2, 2, 3, 4, 5, 2, 1, 0, 6])
        for kernel in (P, NB, T1):
            cv_c = E.cv_score(sample, kernel, coarse).min()
            cv_f = E.cv_score(sample, kernel, fine).min()
            assert cv_f <= cv_c + 1e-15

    def test_reference_dataset_selections(self):
        # regression guards around the known selections on the whitefly data
        assert E.select_bandwidth(SAFOU, T1).h_cv == pytest.approx(0.08, abs=0.02)
        assert E.select_bandwidth(HURA, T1).h_cv == pytest.approx(4.65, abs=0.25)
        assert E.select_bandwidth(HURA, B).h_cv < 0.1
        assert E.select_bandwidth(SAFOU, B).h_cv < 0.05

    def test_bandwidth_shrinks_with_sample_size(self):
        # seeded trend check: more data means less smoothing
        from dks.risk import PoissonPmf
        from dks.simulation import replicate_stream, sample_from_pmf

        f = PoissonPmf(2.0)
        for kernel in (B, P, NB):
            means = {}
            for n in (15, 100):
                hs = [
                    E.select_bandwidth(sample_from_pmf(f, n, replicate_stream(99, n, r)), kernel).h_cv
                    for r in range(50)
                ]
                means[n] = np.mean(hs)
            assert means[100] < means[15], (kernel.label, means)
