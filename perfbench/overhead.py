"""Tracing overhead per workload, from traced and untraced rounds in one process.

    python3 perfbench/overhead.py [--seed N]

On a shared host, interference moves whole runs by more than the tracer
costs, so a traced run minus an untraced run does not resolve the overhead.
Here each workload runs PAIRS[name] pairs of rounds, the two rounds of a
pair on the same inputs, one with the tracer installed and one without,
alternating which goes first.  The overhead is the median over pairs of traced / untraced
round time, minus one.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import tempfile

import run

run.import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402

# Pairs per workload, about 20 s of rounds each.
PAIRS = {"mc-study": 4, "mc-study-pool": 4, "exact-risk": 30, "wide-counts": 3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run.WORK.mkdir(parents=True, exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        workdir = tempfile.mkdtemp(dir=run.WORK)
        try:
            wl = cls(args.seed, workdir)
            ratios = []
            for r in range(PAIRS[name]):
                seconds = {}
                for traced in (True, False) if r % 2 == 0 else (False, True):
                    tr = tracer.Tracer()
                    if traced:
                        tr.install()
                    seconds[traced] = wl.run_round(r).seconds
                    tr.uninstall()
                ratios.append(seconds[True] / seconds[False])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name:14s} tracing overhead {statistics.median(ratios) - 1:+.1%} "
              f"(median of {len(ratios)} pairs; range {min(ratios) - 1:+.1%} .. {max(ratios) - 1:+.1%})", flush=True)


if __name__ == "__main__":
    main()
