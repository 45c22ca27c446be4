import os

import numpy as np
import pytest

from dks import estimation as E
from dks import kernels as K
from dks import simulation as S
from dks.reproduce import table23_config
from dks.risk import PoissonPmf, TabulatedPmf, frequency_mise

F2 = PoissonPmf(2.0)


def small_config(**overrides):
    base = dict(
        true_pmf=F2,
        sample_sizes=(25,),
        replicates=8,
        kernels=(K.dirac(), K.binomial()),
        seed=123,
    )
    base.update(overrides)
    return S.SimulationConfig(**base)


class TestSampling:
    def test_point_mass_draws_the_atom(self):
        f = TabulatedPmf([0.0, 0.0, 1.0])
        s = S.sample_from_pmf(f, 50, S.replicate_stream(1, 50, 0))
        assert s.counts == {2: 50}

    def test_mean_within_clt_bound(self):
        n = 100_000
        s = S.sample_from_pmf(F2, n, S.replicate_stream(5, n, 0))
        values = np.repeat(s.distinct_values, s.value_counts.astype(int))
        assert abs(values.mean() - 2.0) <= 3.0 * np.sqrt(2.0 / n)

    def test_same_stream_same_sample(self):
        a = S.sample_from_pmf(F2, 40, S.replicate_stream(9, 40, 3))
        b = S.sample_from_pmf(F2, 40, S.replicate_stream(9, 40, 3))
        assert a == b

    def test_streams_differ_across_replicates(self):
        a = S.sample_from_pmf(F2, 40, S.replicate_stream(9, 40, 0))
        b = S.sample_from_pmf(F2, 40, S.replicate_stream(9, 40, 1))
        assert a != b


class TestIse:
    def test_self_distance_is_zero(self):
        est = E.frequency_estimate(E.Sample.from_counts({30: 28, 31: 21, 32: 11}), 30, 32)
        assert S.ise(est, est) == 0.0

    def test_single_draw_against_truth(self):
        # indicator at 5 versus the truth, by the closed-form sum
        f5 = PoissonPmf(5.0)
        est = E.frequency_estimate(E.Sample.from_values([5]), 0, 6)
        want = f5.sum_squared() - 2.0 * float(f5.pmf(5)) + 1.0
        assert S.ise(est, f5) == pytest.approx(want, abs=1e-10)

    def test_disjoint_ranges_are_padded(self):
        a = E.PmfEstimate(0, 1, np.array([0.5, 0.5]), 1.0, True)
        b = E.PmfEstimate(3, 4, np.array([1.0, 0.0]), 1.0, True)
        assert S.ise(a, b) == pytest.approx(0.25 + 0.25 + 1.0, abs=1e-14)

    def test_rejects_unknown_reference(self):
        est = E.frequency_estimate(E.Sample.from_values([1]), 0, 2)
        with pytest.raises(TypeError):
            S.ise(est, [0.5, 0.5])


class TestRunReplicate:
    def test_dirac_needs_no_selection(self):
        r = S.run_replicate(small_config(), K.dirac(), 25, 0)
        assert r.h_cv == 0.0

    def test_deterministic(self):
        cfg = small_config()
        a = S.run_replicate(cfg, K.binomial(), 25, 3)
        b = S.run_replicate(cfg, K.binomial(), 25, 3)
        assert a.h_cv == b.h_cv and a.ise == b.ise
        np.testing.assert_array_equal(a.estimate.values, b.estimate.values)

    def test_samples_paired_across_kernels(self):
        cfg = small_config()
        seen = {}
        for kernel in (K.dirac(), K.binomial(), K.triangular(1)):
            rng = S.replicate_stream(cfg.seed, 25, 4)
            seen[kernel.label] = S.sample_from_pmf(cfg.true_pmf, 25, rng)
        assert seen["dirac"] == seen["binomial"] == seen["triangular(p=1)"]

    def test_normalize_flag_respected(self):
        raw = S.run_replicate(small_config(normalize=False), K.binomial(), 25, 0)
        nrm = S.run_replicate(small_config(normalize=True), K.binomial(), 25, 0)
        assert not raw.estimate.normalized
        assert nrm.estimate.normalized
        assert nrm.estimate.total() == pytest.approx(1.0, abs=1e-12)


class TestRunStudy:
    def test_single_replicate_degenerate_decomposition(self):
        report = S.run_study(small_config(replicates=1, kernels=(K.binomial(),)))
        cell = report.cells[0]
        assert cell.ivar == pytest.approx(0.0, abs=1e-18)
        r = S.run_replicate(small_config(replicates=1), K.binomial(), 25, 0)
        assert cell.mean_mise == pytest.approx(r.ise, abs=1e-15)

    def test_report_is_deterministic(self):
        cfg = small_config()
        a = S.run_study(cfg)
        b = S.run_study(cfg)
        for ca, cb in zip(a.cells, b.cells):
            assert ca == cb

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(replicates=0)
        with pytest.raises(ValueError):
            small_config(sample_sizes=(1,))

    def test_negative_seed_rejected(self):
        # a seed is the entropy of every replicate's stream, which must be >= 0
        with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
            small_config(seed=-1)
        assert small_config(seed=0).seed == 0

    def test_dirac_column_tracks_frequency_mise(self):
        # long Monte Carlo run against the closed form, 5% relative
        cfg = small_config(replicates=2000, kernels=(K.dirac(),), seed=2024)
        report = S.run_study(cfg)
        want = frequency_mise(F2, 25)
        assert report.cells[0].mean_mise == pytest.approx(want, rel=0.05)

    def test_cell_lookup(self):
        report = S.run_study(small_config())
        assert report.cell("dirac", 25).kernel == "dirac"
        with pytest.raises(KeyError):
            report.cell("poisson", 25)

    def test_h_values_in_replicate_order(self):
        cfg = small_config(replicates=6, kernels=(K.binomial(),))
        want = [S.run_replicate(cfg, K.binomial(), 25, rep).h_cv for rep in range(6)]
        assert len(set(want)) > 1
        assert S.run_study(cfg).cells[0].h_values == want

    def test_parallel_equals_serial(self, monkeypatch):
        cfg = small_config(replicates=6, sample_sizes=(15, 25))
        serial = S.run_study(cfg)
        pools = []

        class CountingPool(S.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(S, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(S.os, "cpu_count", lambda: 2)  # DKS_THREADS is capped at the CPU count
        monkeypatch.setenv("DKS_THREADS", "2")
        parallel = S.run_study(cfg)
        assert len(pools) == 1  # one pool serves all four cells
        assert serial.cells == parallel.cells


def pooled_tasks(monkeypatch, workers=2) -> list[tuple]:
    """Make run_study use a pool of ``workers``; the returned list collects the
    replicates of every task the pool is given, as (kernel label, n, replicate)."""
    tasks = []

    class CountingPool(S.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            (chunk,) = args  # ProcessPoolExecutor.map submits one chunk of argument tuples per task
            tasks.append(tuple((kernel.label, n, rep) for _, kernel, n, run in chunk for rep in run))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(S, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(S.os, "cpu_count", lambda: workers)
    monkeypatch.setenv("DKS_THREADS", str(workers))
    return tasks


class TestPoolTasks:
    def test_benchmark_shape_sends_one_task_per_cell(self, monkeypatch):
        cfg = table23_config(7)
        cfg.replicates = 4
        serial = S.run_study(cfg)
        tasks = pooled_tasks(monkeypatch)
        pooled = S.run_study(cfg)
        assert len(tasks) == len(serial.cells) == 25
        assert sorted(tasks) == sorted(tuple((c.kernel, c.n, rep) for rep in range(4)) for c in serial.cells)
        assert pooled.cells == serial.cells

    def test_one_cell_keeps_both_workers_busy(self, monkeypatch):
        cfg = small_config(replicates=8, kernels=(K.binomial(),))
        tasks = pooled_tasks(monkeypatch)
        S.run_study(cfg)
        assert len(tasks) >= 2 * 4  # workers * 4
        assert [rep for task in tasks for _, _, rep in task] == list(range(8))

    @pytest.mark.parametrize("replicates", [1, 2, 3, 5, 8])
    def test_pooled_equals_serial(self, monkeypatch, replicates):
        cfg = small_config(replicates=replicates, sample_sizes=(15, 25))
        serial = S.run_study(cfg)
        tasks = pooled_tasks(monkeypatch)
        pooled = S.run_study(cfg)
        assert tasks and all(len({(k, n) for k, n, _ in task}) == 1 for task in tasks)
        assert pooled.cells == serial.cells

    def test_pooled_h_values_in_replicate_order(self, monkeypatch):
        cfg = small_config(replicates=6, sample_sizes=(15, 25, 50), kernels=(K.binomial(),))
        tasks = pooled_tasks(monkeypatch)
        report = S.run_study(cfg)
        assert max(len(task) for task in tasks) > 1  # several replicates share a task
        for n in cfg.sample_sizes:
            want = [S.run_replicate(cfg, K.binomial(), n, rep).h_cv for rep in range(6)]
            assert len(set(want)) > 1
            assert report.cell("binomial", n).h_values == want


class TestWorkersFromEnv:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("DKS_THREADS", raising=False)
        assert S._workers_from_env() == 1

    def test_accepts_one_to_cpu_count(self, monkeypatch):
        cpus = os.cpu_count() or 1
        for value in {1, cpus}:
            monkeypatch.setenv("DKS_THREADS", str(value))
            assert S._workers_from_env() == value

    @pytest.mark.parametrize("raw", ["abc", "", "2.5", "0", "-3", "cpus+1"])
    def test_rejects_bad_values(self, monkeypatch, raw):
        if raw == "cpus+1":
            raw = str((os.cpu_count() or 1) + 1)
        monkeypatch.setenv("DKS_THREADS", raw)
        with pytest.raises(ValueError, match="DKS_THREADS"):
            S._workers_from_env()
