import os
import re
import signal
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from dks import estimation as E
from dks import kernels as K
from dks import simulation as S
from dks.reproduce import table23_config
from dks.risk import PoissonPmf, TabulatedPmf, frequency_mise

F2 = PoissonPmf(2.0)


@pytest.fixture(autouse=True)
def no_cached_pool():
    """Each test starts and ends without the process's cached study pool, so
    that a pool class a test patches in is the one run_study starts, and no
    pool outlives its test."""
    S._drop_pool()
    yield
    S._drop_pool()


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
        pools = started_pools(monkeypatch)
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


def started_pools(monkeypatch, workers=2) -> list:
    """Make run_study use a pool of ``workers``; the returned list collects
    every pool it starts."""
    pools = []

    class CountingPool(S.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(S, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(S.os, "cpu_count", lambda: workers)  # DKS_THREADS is capped at the CPU count
    monkeypatch.setenv("DKS_THREADS", str(workers))
    return pools


def failing_config():
    """Every sample lies at 99,998..99,999, so the poisson cell's first CV terms
    need targets past the limit; the dirac cell's tasks are queued behind it."""
    far = TabulatedPmf(np.r_[np.zeros(99_998), [0.5, 0.5]])
    return small_config(true_pmf=far, sample_sizes=(5,), replicates=4, kernels=(K.poisson(), K.dirac()))


class TestStudyPool:
    def test_consecutive_studies_share_one_pool(self, monkeypatch):
        first, second = small_config(seed=5), small_config(seed=6, sample_sizes=(15, 25))
        serial = [S.run_study(first), S.run_study(second)]
        pools = started_pools(monkeypatch)
        assert [S.run_study(first), S.run_study(second)] == serial
        assert len(pools) == 1

    def test_changed_worker_count_starts_a_new_pool(self, monkeypatch):
        cfg = small_config()
        serial = S.run_study(cfg)
        pools = started_pools(monkeypatch, workers=3)
        monkeypatch.setenv("DKS_THREADS", "2")
        assert S.run_study(cfg) == serial
        monkeypatch.setenv("DKS_THREADS", "3")
        assert S.run_study(cfg) == serial
        assert [pool._max_workers for pool in pools] == [2, 3]
        assert S._pool[:2] == (3, pools[1])

    def test_dead_idle_worker_is_replaced(self, tmp_path):
        # three times: kill an idle worker, then run a pooled study, which must
        # start a new pool and equal serial (in a fresh process, so that a
        # shutdown waiting on the dead worker fails this test, not the suite)
        out = run_script(tmp_path, """
            import multiprocessing.connection, os, signal
            from dks import kernels as K, simulation as S
            from dks.risk import PoissonPmf
            cfg = S.SimulationConfig(PoissonPmf(2.0), (25,), 8, (K.dirac(), K.binomial()), 123)
            serial = S.run_study(cfg)
            S.os.cpu_count = lambda: 2
            os.environ["DKS_THREADS"] = "2"
            assert S.run_study(cfg) == serial
            for _ in range(3):
                pool = S._pool
                worker = multiprocessing.active_children()[0]
                os.kill(worker.pid, signal.SIGKILL)
                assert multiprocessing.connection.wait([worker.sentinel], timeout=10)  # it has exited
                print(S.run_study(cfg) == serial, S._pool[1] is not pool[1])
        """)
        assert out.split() == ["True"] * 6

    def test_failed_study_drops_its_pool(self, monkeypatch):
        failing = failing_config()
        with pytest.raises(RuntimeError, match="failed to truncate") as serial_error:
            S.run_study(failing)
        cfg = small_config()
        serial = S.run_study(cfg)
        pools = started_pools(monkeypatch)
        with pytest.raises(RuntimeError, match=re.escape(str(serial_error.value))):
            S.run_study(failing)
        assert S._pool is None
        assert S.run_study(cfg) == serial
        assert len(pools) == 2

    def test_threads_take_the_pool_in_turn(self, monkeypatch):
        # rounds of pooled studies in four threads on a short switch interval,
        # the first of them failing: each of the others still gets the serial
        # result
        cfg, failing = small_config(sample_sizes=(15, 25)), failing_config()
        serial = S.run_study(cfg)
        started_pools(monkeypatch)

        def study(i, results):
            try:
                results[i] = S.run_study(failing if i == 0 else cfg)
            except RuntimeError as exc:
                results[i] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                results = [None] * 4
                threads = [threading.Thread(target=study, args=(i, results)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert "failed to truncate" in str(results[0])
                assert results[1:] == [serial] * 3
        finally:
            sys.setswitchinterval(interval)

    def test_child_process_runs_its_own_pool(self, tmp_path):
        # a child that multiprocessing forks after a pooled study: its pooled
        # study equals serial on a pool of its own, and it exits
        out = run_script(tmp_path, """
            import multiprocessing, os
            from dks import kernels as K, simulation as S
            from dks.risk import PoissonPmf
            cfg = S.SimulationConfig(PoissonPmf(2.0), (25,), 4, (K.binomial(),), 1)
            serial = S.run_study(cfg)
            S.os.cpu_count = lambda: 2
            os.environ["DKS_THREADS"] = "2"
            assert S.run_study(cfg) == serial
            ctx = multiprocessing.get_context("fork")
            results = ctx.Queue()
            child = ctx.Process(target=lambda: results.put(S.run_study(cfg) == serial))
            child.start()
            print(results.get(timeout=30))
            child.join(timeout=30)
            print(child.exitcode)
        """)
        assert out.split() == ["True", "0"]

    def test_no_worker_outlives_the_process(self, tmp_path):
        out = run_script(tmp_path, """
            import multiprocessing, os
            from dks import kernels as K, simulation as S
            from dks.risk import PoissonPmf
            S.os.cpu_count = lambda: 2
            os.environ["DKS_THREADS"] = "2"
            S.run_study(S.SimulationConfig(PoissonPmf(2.0), (25,), 4, (K.binomial(),), 1))
            print(*[p.pid for p in multiprocessing.active_children()])
        """)
        pids = [int(pid) for pid in out.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def run_script(cwd, script: str, timeout=120) -> str:
    """Run ``script`` in a fresh interpreter, in its own process group, with this
    tree's ``src`` on the path, and return its stdout.  On a timeout the whole
    group, pool workers included, is killed and the test fails."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.Popen([sys.executable, "-c", textwrap.dedent(script)], cwd=cwd, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
                            env={**os.environ, "PYTHONPATH": src})
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"the script did not finish in {timeout} s")
    assert proc.returncode == 0, err
    return out


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
