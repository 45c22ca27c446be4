"""Compare two results files written by ``perfbench/run.py``.

    python3 perfbench/compare.py BASE.json NEW.json

For every workload and metric in both files: the median of each side (with
quartiles when a side has four or more runs), the change of the medians,
and a verdict.  End-to-end metrics use the bound in BENCHMARK.json: a change
worse than the bound is a regression; when the base's own quartile spread
exceeds the bound the change is unresolved.  Count metrics from traced runs
should repeat exactly on the same seeds; any difference is shown.
Exits 1 if any end-to-end metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SPECS = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def load(path: str) -> tuple[dict, dict[str, dict[str, list[float]]]]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    values: dict[str, dict[str, list[float]]] = {}
    for rec in data["records"]:
        per = values.setdefault(rec["workload"], {})
        for name, m in rec["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return data["machine"], values


def summary(vals: list[float]) -> tuple[float, float]:
    """(median, quartile spread as a share of the median; 0 under 4 runs)."""
    med = statistics.median(vals)
    if len(vals) < 4 or med == 0:
        return med, 0.0
    q = statistics.quantiles(vals, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base_machine, base = load(sys.argv[1])
    new_machine, new = load(sys.argv[2])
    print(f"base: {base_machine}\nnew:  {new_machine}")
    regressions = 0
    for workload in base:
        if workload not in new:
            continue
        print(f"\n{workload}")
        for name, bvals in base[workload].items():
            if name not in new[workload]:
                continue
            spec = SPECS[name]
            (bmed, bspread), (nmed, nspread) = summary(bvals), summary(new[workload][name])
            change = (nmed - bmed) / bmed if bmed else 0.0
            worse = change if spec["better"] == "lower" else -change
            if "bound" in spec:
                if bspread > spec["bound"]:
                    verdict = "unresolved (base spread above bound)"
                elif worse > spec["bound"]:
                    verdict = "REGRESSION"
                    regressions += 1
                else:
                    verdict = "better" if worse < 0 else "within bound"
            elif spec["unit"] == "s":
                verdict = ""
            else:
                verdict = "same" if sorted(bvals) == sorted(new[workload][name]) else "differs"
            print(f"  {name:42s} {bmed:12.6g} ({bspread:5.1%}) -> {nmed:12.6g} ({nspread:5.1%})"
                  f"  {change:+7.1%}  {verdict}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
