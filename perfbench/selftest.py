"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Each check runs on real program output, where it must pass, and on a copy
with one deliberate corruption, where it must fail.  Exits 1 if any check
misses its corruption or rejects clean output.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import sys
import tempfile

import numpy as np

import run

run.import_program()

import checks  # noqa: E402
import workloads  # noqa: E402
from dks import reproduce, risk, simulation  # noqa: E402
from dks.kernels import dirac, poisson  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(name: str, clean: list[str], corrupted: list[str]) -> None:
    ok = not clean and bool(corrupted)
    RESULTS.append((name, ok))
    detail = f"clean: {clean[:1] or 'pass'}; corrupted: {corrupted[:1] or 'NOT DETECTED'}"
    print(f"{'ok  ' if ok else 'FAIL'} {name}\n     {detail}")


def study_cases() -> None:
    config = dataclasses.replace(reproduce.table23_config(101), replicates=3)
    report = simulation.run_study(config)
    clean = checks.StudyChecker().check(config, report)

    bad = copy.deepcopy(report)
    bad.cell("poisson", 25).mean_mise += 1e-6
    expect("study: a cell's mean_mise shifted by 1e-6", clean, checks.StudyChecker().check(config, bad))

    # h_cv moved one grid step off the CV minimum, on a replicate whose CV
    # curve has an interior minimum
    kernel = poisson()
    domain = config.search_for(kernel)
    grid = np.geomspace(domain.h_min, domain.h_max, domain.grid_points)
    for n in config.sample_sizes:
        values, counts = np.unique(checks.draw_sample(config.seed, n, 0, config.true_pmf.mu), return_counts=True)
        i = int(np.argmin(checks.cv_scores(values, counts, kernel, grid)))
        if 0 < i < len(grid) - 1:
            break
    h = report.cell("poisson", n).h_values[0]
    moved = grid[i + 1] if h <= grid[i] else grid[i - 1]
    expect(f"study: h_cv moved one grid step off the CV minimum (poisson n={n})",
           checks.check_cv_minimum(values, counts, kernel, h, domain, "clean"),
           checks.check_cv_minimum(values, counts, kernel, moved, domain, "moved"))

    # the pooled dirac test needs the replicate count of a benchmark run
    dirac_config = dataclasses.replace(config, kernels=(dirac(),), replicates=20)
    checker = checks.StudyChecker()
    checker.check(dirac_config, simulation.run_study(dirac_config))
    shifted = checks.StudyChecker()
    shifted.dirac = {n: [v * 1.5 for v in ises] for n, ises in checker.dirac.items()}
    expect("study: dirac replicate ISEs 1.5x the closed form", checker.dirac_failures(config.true_pmf.mu),
           shifted.dirac_failures(config.true_pmf.mu))

    bad = copy.deepcopy(report)
    for n in config.sample_sizes:
        bad.cell("negbin", n).h_values[:] = [h * 1.01 for h in bad.cell("negbin", n).h_values]
    pool = workloads.McStudyPool.__new__(workloads.McStudyPool)
    expect("study: pooled bandwidth differs from serial run_replicate",
           pool.extra_checks(config, report), pool.extra_checks(config, bad))

    rows2 = reproduce.table2_rows(report)
    rows3 = reproduce.table3_rows(report)
    bad3 = copy.deepcopy(rows3)
    bad3[0]["mise_x1000"] *= 1.01
    expect("study: dirac table-3 MISE off the closed form",
           workloads.check_table_rows(config, report, rows2, rows3),
           workloads.check_table_rows(config, report, rows2, bad3))


def risk_cases() -> None:
    kernel, h, mu = poisson(), 0.3, 2.0
    f = risk.PoissonPmf(mu)
    calls = {}
    for n in reproduce.SIZES:
        b = risk.exact_mise(kernel, h, f, n)
        calls[n] = (b.mise, b.integrated_squared_bias, b.integrated_variance)
    clean = checks.check_risk_group(kernel, h, mu, calls, direct=True)
    bad = {n: (isb + iv * (n / 15.0) ** 0.05, isb, iv * (n / 15.0) ** 0.05) for n, (_, isb, iv) in calls.items()}
    expect("risk: integrated variance not proportional to 1/n", clean,
           checks.check_risk_group(kernel, h, mu, bad, direct=False))
    bad = {n: (mise * 1.001, isb * 1.001, iv * 1.001) for n, (mise, isb, iv) in calls.items()}
    expect("risk: MISE, IBias and IVar 0.1% off the direct sum", clean,
           checks.check_risk_group(kernel, h, mu, bad, direct=True))
    dcalls = {}
    for n in reproduce.SIZES:
        b = risk.exact_mise(dirac(), 0.0, f, n)
        dcalls[n] = (b.mise, b.integrated_squared_bias, b.integrated_variance)
    bad = {n: (m * 1.01, isb, iv * 1.01) for n, (m, isb, iv) in dcalls.items()}
    expect("risk: dirac MISE 1% off (1 - sum f^2)/n", checks.check_risk_group(dirac(), 0.0, mu, dcalls, False),
           checks.check_risk_group(dirac(), 0.0, mu, bad, False))


def cli_cases() -> None:
    run.WORK.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.WORK)
    try:
        wl = workloads.WideCounts(7, workdir)
        label, data, values, counts = wl.prepared[0][0]
        kernel = workloads.CLI_KERNELS["poisson"]
        domain = workloads.default_search_config(kernel.family)
        code, _, _, stdout, csv_text = wl.command(["estimate", "--data", data, "--kernel", "poisson", "--cv", "--normalize"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = checks.parse_estimate(stdout, csv_text)
    clean = checks.check_estimate(out, values, counts, kernel, domain.h_max, "clean") if code == 0 else ["exit"]

    bad = copy.deepcopy(out)
    bad["normalized"] = bad["normalized"] * 1.001
    expect("cli: normalized column summing to 1.001", clean,
           checks.check_estimate(bad, values, counts, kernel, domain.h_max, "bad"))

    bad = copy.deepcopy(out)
    i = int(np.argmax(bad["raw"]))
    bad["raw"][i] *= 1 + 1e-6
    bad["normalized"][i] *= 1 + 1e-6
    bad["normalized"] /= bad["normalized"].sum()
    bad["raw"] = bad["normalized"] * bad["C"]
    expect("cli: raw column 1e-6 off the independent estimate", clean,
           checks.check_estimate(bad, values, counts, kernel, domain.h_max, "bad"))

    grid = np.geomspace(domain.h_min, domain.h_max, domain.grid_points)
    lo, h, hi = checks.printed_bracket(out["h_text"], domain.h_max)
    j = int(np.argmin(np.abs(np.log(grid / h))))
    moved = grid[j + 1] if grid[j] <= h else grid[j - 1]
    expect("cli: printed h moved one grid step off the CV minimum",
           checks.check_cv_minimum(values, counts, kernel, (lo, hi), domain, "clean"),
           checks.check_cv_minimum(values, counts, kernel, moved, domain, "moved"))


def main() -> None:
    study_cases()
    risk_cases()
    cli_cases()
    missed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(missed)} of {len(RESULTS)} checks pass clean output and catch their corruption")
    sys.exit(1 if missed else 0)


if __name__ == "__main__":
    main()
