"""The benchmark's workloads.

Each workload builds its inputs from the workload seed, runs whole rounds of
the same operations through the package's public functions, and checks the
outputs with ``checks`` once timing is over.  ``checks`` is imported only
then, so that set-up loads no more than the program and its inputs need.
Round ``r`` draws fresh inputs from (seed, r), so no round repeats an
earlier one's inputs.

A workload object is set up by its constructor: round 0's inputs are built
and one small warm-up call per kernel has run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import time
from pathlib import Path

import numpy as np

from dks import builtin_dataset, cli, reproduce, risk, simulation
from dks.estimation import default_search_config
from dks.kernels import KernelSpec, binomial, dirac, negbin, poisson, triangular


@dataclasses.dataclass
class Round:
    # (start, seconds, operations) of each timed unit: one call or command,
    # or a whole study round, which does not expose single replicates
    units: list[tuple[float, float, int]]
    outputs: object
    failed: int = 0

    @property
    def ops(self) -> int:
        return sum(u[2] for u in self.units)

    @property
    def seconds(self) -> float:
        return sum(u[1] for u in self.units)


def no_sampling() -> None:
    pass


def study_seed(seed: int, r: int) -> int:
    return seed * 10_007 + r


class Workload:
    name: str
    # What one operation of ``attempted`` is, printed with each record.
    operation: str
    # Typical round time on the 2-vCPU reference host; a traced run makes
    # round(seconds / nominal_round_s) rounds so that it repeats exactly.
    nominal_round_s: float

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.prepared = {0: self.prepare(0)}
        self.warm_up()

    def inputs(self, r: int):
        """Round r's inputs; round 0's were built at set-up."""
        return self.prepared.pop(r, None) or self.prepare(r)

    def prepare(self, r: int):
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int, between=no_sampling) -> Round:
        """Run round r; ``between`` is called between timed operations."""
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> list[str]:
        raise NotImplementedError


class McStudy(Workload):
    """Tables 2/3 protocol at a reduced replicate count, serial.

    One operation is one kernel-replicate: a draw-select-estimate-score cycle
    for one kernel (the dirac kernel skips selection).  A round is one
    ``run_study`` call scored with ``table2_rows`` and ``table3_rows``.
    """

    name = "mc-study"
    operation = "one kernel-replicate (draw, select, estimate, score), timed per run_study round"
    threads = "1"
    replicates = 4
    nominal_round_s = 2.2

    def __init__(self, seed: int, workdir: Path):
        os.environ["DKS_THREADS"] = self.threads
        super().__init__(seed, workdir)

    def prepare(self, r: int):
        return dataclasses.replace(reproduce.table23_config(study_seed(self.seed, r)), replicates=self.replicates)

    def warm_up(self) -> None:
        """One replicate per kernel, at an index no round uses."""
        config = self.prepared[0]
        for kernel in config.kernels:
            simulation.run_replicate(config, kernel, config.sample_sizes[0], config.replicates)

    def run_round(self, r: int, between=no_sampling) -> Round:
        config = self.inputs(r)
        start = time.perf_counter()
        report = simulation.run_study(config)
        rows2 = reproduce.table2_rows(report)
        rows3 = reproduce.table3_rows(report)
        seconds = time.perf_counter() - start
        ops = len(config.kernels) * len(config.sample_sizes) * config.replicates
        return Round([(start, seconds, ops)], (config, report, rows2, rows3))

    def check(self, rounds: list[Round]) -> list[str]:
        import checks

        checker = checks.StudyChecker()
        failures = []
        for rnd in rounds:
            config, report, rows2, rows3 = rnd.outputs
            failures += checker.check(config, report)
            failures += check_table_rows(config, report, rows2, rows3)
            failures += self.extra_checks(config, report)
        return failures + checker.dirac_failures(rounds[0].outputs[0].true_pmf.mu)

    def extra_checks(self, config, report) -> list[str]:
        return []


class McStudyPool(McStudy):
    """The same inputs on the process-pool path of ``run_study``."""

    name = "mc-study-pool"
    threads = "2"
    nominal_round_s = 2.5

    def extra_checks(self, config, report) -> list[str]:
        """Pooled bandwidths equal serial ``run_replicate`` results on one
        replicate per (kernel, round)."""
        failures = []
        r = config.seed % 10_007
        n = config.sample_sizes[r % len(config.sample_sizes)]
        rep = r % config.replicates
        for kernel in config.kernels:
            serial = simulation.run_replicate(config, kernel, n, rep).h_cv
            pooled = report.cell(kernel.label, n).h_values[rep]
            if serial != pooled:
                failures.append(f"{kernel.label} n={n} rep={rep}: pooled h={pooled!r}, serial h={serial!r}")
        return failures


def check_table_rows(config, report, rows2, rows3) -> list[str]:
    """Table rows restate the cells: bandwidth mean/sd, MISE = IBias + IVar,
    the dirac row's closed form and the Monte Carlo column."""
    import checks

    failures = []
    for row in rows2:
        hs = np.array(report.cell(row["kernel"], row["n"]).h_values)
        if not (checks.close(row["h_mean"], float(hs.mean())) and checks.close(row["h_sd"], float(hs.std(ddof=1)))):
            failures.append(f"table 2 {row['kernel']} n={row['n']}: h mean/sd do not match the cell")
    mu = config.true_pmf.mu
    s2 = float(np.sum(checks.truth_pmf(mu, np.arange(0, 200)) ** 2))
    for row in rows3:
        label = f"table 3 {row['kernel']} n={row['n']}"
        if not checks.close(row["mise_x1000"], row["ibias_x1000"] + row["ivar_x1000"]):
            failures.append(f"{label}: mise != ibias + ivar")
        if not checks.close(row["mc_mise_x1000"], report.cell(row["kernel"], row["n"]).mean_mise * 1e3):
            failures.append(f"{label}: mc column is not the cell's mean ISE")
        if row["kernel"] == "dirac" and not checks.close(row["mise_x1000"], (1.0 - s2) / row["n"] * 1e3):
            failures.append(f"{label}: dirac mise {row['mise_x1000']!r} is not (1 - sum f^2)/n")
    return failures


class ExactRisk(Workload):
    """``risk.exact_mise`` over seeded log-spaced bandwidth grids.

    Per round and truth (Poisson(2) and a wider Poisson near 20): ``grid``
    bandwidths per smoothing family, log-spaced across the family's default
    domain with a seeded offset, plus dirac at h = 0; each at every n.  One
    operation is one ``exact_mise`` call.

    The families with unbounded support get the denser grid: their tail
    scans are the risk layer's main cost, and with them the median call
    lies inside one cluster of call times rather than in the gap between
    the cheap and the dear families.
    """

    name = "exact-risk"
    operation = "one risk.exact_mise call"
    grid = {"binomial": 4, "poisson": 8, "negbin": 8, "triangular": 4}
    sizes = reproduce.SIZES
    kernels = (binomial(), poisson(), negbin(), triangular(1))
    nominal_round_s = 0.3

    def __init__(self, seed: int, workdir: Path):
        self.truths = (risk.PoissonPmf(2.0), risk.PoissonPmf(18.0 + 4.0 * np.random.default_rng([seed]).random()))
        super().__init__(seed, workdir)

    def warm_up(self) -> None:
        for kernel in self.kernels:
            cfg = default_search_config(kernel.family)
            risk.exact_mise(kernel, math.sqrt(cfg.h_min * cfg.h_max), self.truths[0], self.sizes[0])
        risk.exact_mise(dirac(), 0.0, self.truths[0], self.sizes[0])

    def prepare(self, r: int) -> list[tuple[KernelSpec, float, risk.PoissonPmf, int]]:
        rng = np.random.default_rng([self.seed, r])
        calls = []
        for truth in self.truths:
            for kernel in self.kernels:
                cfg = default_search_config(kernel.family)
                lo, hi = math.log(cfg.h_min), math.log(cfg.h_max)
                u = rng.random()
                points = self.grid[kernel.family.value]
                for k in range(points):
                    h = math.exp(lo + (k + u) / points * (hi - lo))
                    calls += [(kernel, h, truth, n) for n in self.sizes]
            calls += [(dirac(), 0.0, truth, n) for n in self.sizes]
        return calls

    def run_round(self, r: int, between=no_sampling) -> Round:
        calls = self.inputs(r)
        results = []
        units = []
        for kernel, h, truth, n in calls:
            between()
            start = time.perf_counter()
            b = risk.exact_mise(kernel, h, truth, n)
            units.append((start, time.perf_counter() - start, 1))
            results.append((b.mise, b.integrated_squared_bias, b.integrated_variance))
        return Round(units, (r, calls, results))

    def check(self, rounds: list[Round]) -> list[str]:
        """Every (kernel, h, truth) group across n; the direct sum on one
        bandwidth per (family, truth) and round, and on every dirac group."""
        import checks

        failures = []
        for rnd in rounds:
            r, calls, results = rnd.outputs
            groups: dict[tuple, dict[int, tuple]] = {}
            for (kernel, h, truth, n), res in zip(calls, results):
                groups.setdefault((kernel, h, truth.mu), {})[n] = res
            seen: dict[tuple, int] = {}
            for (kernel, h, mu), by_n in groups.items():
                k = seen[kernel, mu] = seen.get((kernel, mu), -1) + 1
                family = kernel.family.value
                direct = family == "dirac" or k == r % self.grid[family]
                failures += checks.check_risk_group(kernel, h, mu, by_n, direct)
        return failures


def pinned_sample(draw, top: int, n: int = 250):
    """n - 1 draws truncated to [0, top) (redrawn above it) plus one
    observation at ``top``: the largest value, and with it the evaluation
    range, is the same for every seed."""
    def sample(rng):
        values = draw(rng, n - 1)
        while np.any(values >= top):
            high = values >= top
            values[high] = draw(rng, int(high.sum()))
        return np.append(values, top)
    return sample


DATASETS = (
    # (label, generator, file format)
    ("poisson40", pinned_sample(lambda rng, k: rng.poisson(40.0, k), 70), "raw"),
    ("negbin120", pinned_sample(lambda rng, k: rng.negative_binomial(4, 4.0 / (4.0 + 120.0), k), 400),
     "value-count"),
    ("zip60", pinned_sample(lambda rng, k: np.where(rng.random(k) < 0.3, 0, rng.poisson(60.0, k)), 95), "raw"),
)
BUILTINS = ("safou", "hura")
CLI_KERNELS = {"binomial": binomial(), "poisson": poisson(), "negbin": negbin(), "triangular": triangular(1)}


class WideCounts(Workload):
    """``dks estimate --cv --normalize --out CSV`` in process, over seeded
    count files in both formats and the two built-in datasets, each with the
    four smoothing kernels.  One operation is one command."""

    name = "wide-counts"
    operation = "one in-process dks estimate --cv --normalize --out command"
    nominal_round_s = 3.0

    def warm_up(self) -> None:
        for kernel in CLI_KERNELS:
            self.command(["estimate", "--data", "builtin:safou", "--kernel", kernel, "--h", "0.1"])

    def prepare(self, r: int) -> list[tuple[str, str, np.ndarray, np.ndarray]]:
        """(label, --data argument, distinct values, counts) per dataset."""
        rng = np.random.default_rng([self.seed, r])
        out = []
        for label, draw, fmt in DATASETS:
            values, counts = np.unique(draw(rng), return_counts=True)
            path = self.workdir / f"r{r}-{label}.{'csv' if fmt == 'value-count' else 'txt'}"
            if fmt == "raw":
                text = "".join(f"{v}\n" * c for v, c in zip(values, counts))
            else:
                text = "value,count\n" + "".join(f"{v},{c}\n" for v, c in zip(values, counts))
            path.write_text(text, encoding="utf-8")
            out.append((label, str(path), values, counts))
        for name in BUILTINS:
            counts = builtin_dataset(name).sample.counts
            out.append((name, f"builtin:{name}", np.array(list(counts)), np.array(list(counts.values()))))
        return out

    def command(self, argv: list[str]) -> tuple[int, float, float, str, str]:
        """(exit code, start, seconds, stdout, CSV text) of one in-process command."""
        out_csv = self.workdir / "out.csv"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = cli.run_cli(argv + ["--out", str(out_csv)])
            seconds = time.perf_counter() - start
        csv_text = out_csv.read_text(encoding="utf-8") if code == 0 else ""
        out_csv.unlink(missing_ok=True)
        return code, start, seconds, stdout.getvalue(), csv_text

    def run_round(self, r: int, between=no_sampling) -> Round:
        datasets = self.inputs(r)
        outputs = []
        units = []
        failed = 0
        for label, data, values, counts in datasets:
            for kernel in CLI_KERNELS:
                between()
                code, start, seconds, stdout, csv_text = self.command(
                    ["estimate", "--data", data, "--kernel", kernel, "--cv", "--normalize"])
                units.append((start, seconds, 1))
                failed += code != 0
                outputs.append((label, kernel, code, values, counts, stdout, csv_text))
            if not data.startswith("builtin:"):
                Path(data).unlink()
        return Round(units, (r, outputs), failed)

    def check(self, rounds: list[Round]) -> list[str]:
        """Every command's columns; the CV minimum for every kernel of one
        dataset per round, rotating through the datasets."""
        import checks

        failures = []
        for rnd in rounds:
            r, outputs = rnd.outputs
            cv_dataset = r % (len(DATASETS) + len(BUILTINS))
            for i, (label, kernel_name, code, values, counts, stdout, csv_text) in enumerate(outputs):
                if code != 0:
                    continue
                kernel = CLI_KERNELS[kernel_name]
                domain = default_search_config(kernel.family)
                tag = f"round {r} {label} {kernel.label}"
                out = checks.parse_estimate(stdout, csv_text)
                failures += checks.check_estimate(out, values, counts, kernel, domain.h_max, tag)
                if i // len(CLI_KERNELS) == cv_dataset:
                    lo, _, hi = checks.printed_bracket(out["h_text"], domain.h_max)
                    failures += checks.check_cv_minimum(values, counts, kernel, (lo, hi), domain, tag)
        return failures


WORKLOADS = {w.name: w for w in (McStudy, McStudyPool, ExactRisk, WideCounts)}
