"""dks benchmark: one workload in process, or every workload in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1] [--repeat K]

With ``--workload`` the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without it, every workload runs as a child process (K times, seeds N..N+K-1)
and the records, with the machine's facts, go to a results file under
``perfbench/results/``.  The program is imported from ``src/`` of the
checkout holding this directory; without it the benchmark exits with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "work"

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
)
SETUP_SAMPLES = 5


def import_program():
    """Import ``dks`` from the checkout's ``src/``; exit 2 if it is not there."""
    package = ROOT / "src" / "dks"
    if not (package / "__init__.py").is_file():
        print(f"benchmark: no program at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import dks

    if Path(dks.__file__).resolve().parent != package.resolve():
        print(f"benchmark: imported dks from {dks.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)
    return dks


def peak_rss_mib() -> float:
    """Peak resident set of this process and of any waited-for child (pool
    workers), whichever is larger; ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_sample(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported dks,
    built the workload's inputs and run its warm-up calls."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.read()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe for {workload} failed")
    return elapsed


def run_workload(args) -> dict:
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        wl = cls(args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return {}
        # imported after set-up, so that a probe loads only what set-up needs
        if args.trace:
            import tracer

            spans = tracer.Tracer()
            spans.install()
            rounds = [wl.run_round(r) for r in range(max(1, round(args.seconds / cls.nominal_round_s)))]
            spans.uninstall()
        else:
            from hostspeed import HostSpeed

            host = HostSpeed()
            rounds = []
            host.sample()
            while sum(rnd.seconds for rnd in rounds) < args.seconds:
                rounds.append(wl.run_round(len(rounds), host.between))
                host.sample()
        peak = peak_rss_mib()
        check_start = time.perf_counter()
        failures = wl.check(rounds)
        check_s = time.perf_counter() - check_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = [u for rnd in rounds for u in rnd.units]
    extra = {"operation": cls.operation, "rounds": len(rounds), "timed_s": sum(rnd.seconds for rnd in rounds),
             "check_s": check_s, "raw": speed_figures([(seconds, n) for _, seconds, n in units])}
    if args.trace:
        metrics = tracer.layer_metrics(spans.spans)
        calls, repeats = tracer.repeated_triples(spans.spans)
        extra["exact_mise_triples"] = {"calls": calls, "repeated": repeats}
        RESULTS.mkdir(parents=True, exist_ok=True)
        trace_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl"
        spans.write(trace_path)
        extra["trace_file"] = str(trace_path.relative_to(ROOT))
        metric_units = dict(tracer.PER_LAYER)
    else:
        scaled = speed_figures([(seconds * host.scale(start + seconds / 2), n) for start, seconds, n in units])
        # set-up is wall clock: scaling it by the calibration loop made it noisier
        setups = [setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
        extra["setup_samples_s"] = setups
        extra["calibration_loop_s"] = {"median": statistics.median(host.loops), "samples": len(host.loops)}
        if "op_p99_ms" in scaled:
            extra["op_p99_ms"] = scaled["op_p99_ms"]
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mib": peak,
            "ops_per_s": scaled["ops_per_s"],
            "op_p50_ms": scaled["op_p50_ms"],
        }
        metric_units = dict(END_TO_END)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not failures,
        "attempted": sum(n for _, _, n in units),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": {name: {"value": value, "unit": metric_units[name]} for name, value in metrics.items()},
        "extra": extra,
        "failures": failures[:20],
    }


def speed_figures(units: list[tuple[float, int]]) -> dict[str, float]:
    """Throughput and per-operation latency from (seconds, operations) units."""
    latencies = [1e3 * seconds / n for seconds, n in units]
    out = {
        "ops_per_s": sum(n for _, n in units) / sum(seconds for seconds, _ in units),
        "op_p50_ms": statistics.median(latencies),
    }
    if len(latencies) >= 1000:
        out["op_p99_ms"] = statistics.quantiles(latencies, n=100)[98]
    return out


def print_record(rec: dict) -> None:
    extra = rec["extra"]
    verdict = "outputs correct" if rec["correct"] else "OUTPUTS WRONG"
    print(f"{rec['workload']} seed={rec['seed']} trace={rec['trace']}: {extra['rounds']} rounds, "
          f"{rec['attempted']} attempted, {rec['failed']} failed, {verdict}")
    print(f"  one operation: {extra['operation']}")
    for message in rec["failures"]:
        print(f"  check failed: {message}")
    for name, m in rec["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    if "op_p99_ms" in extra:
        print(f"  {'op_p99_ms (not in BENCHMARK.json)':42s} {extra['op_p99_ms']:.6g} ms")
    print("  wall clock, not scaled: " + ", ".join(f"{name} {value:.6g}" for name, value in extra["raw"].items()))


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        # the ceiling keeps git from searching above the checkout
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def run_all(args) -> None:
    """Every workload in its own process; print each record, write the file."""
    import workloads

    records = []
    WORK.mkdir(parents=True, exist_ok=True)
    for k in range(args.repeat):
        for name in workloads.WORKLOADS:
            with tempfile.NamedTemporaryFile(dir=WORK, suffix=".json", delete=False) as tmp:
                report = Path(tmp.name)
            try:
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed + k),
                     "--seconds", str(args.seconds), "--trace", str(args.trace), "--report", str(report)],
                    cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.exit(f"{name} exited with {proc.returncode}:\n{proc.stderr}")
                rec = json.loads(report.read_text(encoding="utf-8"))
            finally:
                report.unlink(missing_ok=True)
            print_record(rec)
            records.append(rec)
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = Path(args.out) if args.out else RESULTS / time.strftime(f"BENCH_%Y%m%dT%H%M%S-trace{args.trace}.json")
    out.write_text(json.dumps({"machine": machine_facts(), "seconds": args.seconds, "trace": args.trace,
                               "records": records}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if not all(r["correct"] for r in records):
        sys.exit(1)


def run_seconds() -> int:
    spec = ROOT / "BENCHMARK.json"
    return json.loads(spec.read_text(encoding="utf-8"))["run_seconds"] if spec.is_file() else 15


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=run_seconds(), help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload without --workload")
    parser.add_argument("--out", help="results file without --workload")
    parser.add_argument("--report", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_program()
    import workloads

    if args.workload is None:
        run_all(args)
        return
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    rec = run_workload(args)
    if args.setup_probe:
        return
    print_record(rec)
    if args.report:
        Path(args.report).write_text(json.dumps(rec) + "\n", encoding="utf-8")
    print(json.dumps({key: rec[key] for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
