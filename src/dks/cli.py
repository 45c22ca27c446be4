# cli.py
# Command-line front end: estimation, bandwidth selection, risk analytics,
# kernel inspection, and reference-table reproduction.
#
# Exit codes: 0 success, 1 usage error, 2 runtime error, 141 (128 + SIGPIPE)
# when the reader closes stdout early.

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import os
import sys
from dataclasses import fields

import numpy as np

from . import reproduce
from .data_io import builtin_dataset, load_counts, write_report
from .estimation import (
    Sample,
    SearchConfig,
    default_search_config,
    kernel_estimate_raw,
    normalize_estimate,
    select_bandwidth,
)
from .kernels import (
    KernelFamily,
    KernelSpec,
    kernel_mean,
    kernel_variance,
    modal_limit,
    modal_limit_ratio_negbin_poisson,
    modal_limit_ratio_poisson_binomial,
    modal_probability,
    validate_bandwidth,
)
from .risk import PoissonPmf, exact_mise, frequency_mise
from .simulation import SimulationConfig, run_study

_KERNEL_NAMES = tuple(f.value for f in KernelFamily)
_KERNEL_HELP = "dirac, binomial, poisson, negbin, triangular[:P]"
_EXIT_BROKEN_PIPE = 128 + 13
_KERNEL_INFO_MAX_ROWS = 100_000  # (x_max + 1) x bandwidths; at about 80 us a row, 8 s


class _UsageError(Exception):
    pass


@contextlib.contextmanager
def _usage_errors(prefix: str = ""):
    """Report a ValueError that a library constructor or validator raises on a flag value as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(f"{prefix}{exc}") from None


def _parse_kernel(token: str) -> KernelSpec:
    name, _, suffix = token.partition(":")
    if name not in _KERNEL_NAMES:
        raise _UsageError(f"unknown kernel {token!r}; choose from {', '.join(_KERNEL_NAMES)}")
    if name != "triangular":
        if suffix:
            raise _UsageError(f"only the triangular kernel takes an arm suffix, got {token!r}")
        return KernelSpec(KernelFamily(name))
    try:
        arm = int(suffix or 1)
    except ValueError:
        raise _UsageError(f"bad triangular arm in {token!r}") from None
    with _usage_errors():
        return KernelSpec(KernelFamily.TRIANGULAR, arm=arm)


def _parse_true(token: str):
    name, _, value = token.partition(":")
    if name != "poisson" or not value:
        raise _UsageError(f"unsupported distribution {token!r}; use poisson:MU")
    try:
        mu = float(value)
    except ValueError:
        raise _UsageError(f"bad mean in {token!r}") from None
    with _usage_errors():
        return PoissonPmf(mu)


def _load_data(token: str) -> Sample:
    if token.startswith("builtin:"):
        return builtin_dataset(token[len("builtin:"):]).sample
    return load_counts(token).sample


def _fixed_bandwidth(kernel: KernelSpec, h: float | None) -> float | None:
    """A given bandwidth flag, checked against the family; the dirac kernel runs at 0."""
    if h is not None:
        with _usage_errors():
            validate_bandwidth(kernel, h)
    return 0.0 if kernel.family is KernelFamily.DIRAC else h


def _print_table(headers, rows, out=None) -> None:
    """Print the rows as aligned columns; with ``out``, also write them there as CSV."""
    table = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    if out:
        _write_csv(out, headers, rows)


def _fmt(x, digits: int = 6) -> str:
    if x is None:
        return "-"
    return f"{x:.{digits}g}"


def _write_csv(path, headers, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)


def _cmd_estimate(args) -> int:
    sample = _load_data(args.data)
    kernel = _parse_kernel(args.kernel)
    if args.cv:
        with _usage_errors():
            config = default_search_config(kernel.family)
        h = select_bandwidth(sample, kernel, config).h_cv
    else:
        h = _fixed_bandwidth(kernel, args.h)
        if h is None:
            raise _UsageError("choose a bandwidth with --h or select one with --cv")
    raw = kernel_estimate_raw(sample, kernel, h)
    norm = normalize_estimate(raw) if raw.total() > 0 else None
    print(f"# kernel={kernel.label} h={_fmt(h)} n={sample.n} C={_fmt(raw.normalization_constant, 12)}")
    headers = ["x", "raw"] + (["normalized"] if args.normalize else [])
    rows = []
    for i, x in enumerate(raw.grid()):
        row = [x, _fmt(raw.values[i], 12)]
        if args.normalize:
            row.append(_fmt(norm.values[i], 12) if norm is not None else "-")
        rows.append(row)
    _print_table(headers, rows, args.out)
    return 0


def _cmd_cv(args) -> int:
    sample = _load_data(args.data)
    kernel = _parse_kernel(args.kernel)
    with _usage_errors():
        base = default_search_config(kernel.family)
    with _usage_errors("bad search domain: "):
        config = SearchConfig(
            h_min=args.h_min if args.h_min is not None else base.h_min,
            h_max=args.h_max if args.h_max is not None else base.h_max,
            grid_points=args.grid,
        )
        validate_bandwidth(kernel, config.h_max)
    sel = select_bandwidth(sample, kernel, config)
    print(f"# kernel={kernel.label} n={sample.n} h_cv={_fmt(sel.h_cv, 12)}")
    rows = [[_fmt(h, 12), _fmt(score, 12)] for h, score in sel.cv_curve]
    _print_table(["h", "cv"], rows, args.out)
    return 0


def _cmd_simulate(args) -> int:
    with _usage_errors():
        config = SimulationConfig(
            true_pmf=_parse_true(args.true),
            sample_sizes=tuple(args.sizes),
            replicates=args.replicates,
            kernels=tuple(_parse_kernel(tok) for tok in args.kernels),
            seed=args.seed,
            normalize=args.normalize,
        )
    report = run_study(config)
    headers = ["kernel", "n", "h_mean", "h_sd", "mean_mise", "ibias", "ivar"]
    rows = [
        [c.kernel, c.n, _fmt(c.h_mean), _fmt(c.h_sd), _fmt(c.mean_mise), _fmt(c.ibias), _fmt(c.ivar)]
        for c in report.cells
    ]
    _print_table(headers, rows)
    if args.out:
        write_report(report, args.format, args.out)
        print(f"# wrote {args.format} report to {args.out}")
    return 0


def _cmd_risk(args) -> int:
    f = _parse_true(args.true)
    kernel = _parse_kernel(args.kernel)
    h = _fixed_bandwidth(kernel, args.h)
    if h is None:
        raise _UsageError("--h is required for non-dirac kernels")
    with _usage_errors():
        freq_mise = frequency_mise(f, args.n)  # checks n
    breakdown = exact_mise(kernel, h, f, args.n)
    print(f"# kernel={kernel.label} h={_fmt(h)} n={args.n} truth={f.label()}")
    print(f"integrated squared bias: {_fmt(breakdown.integrated_squared_bias, 12)}")
    print(f"integrated variance:     {_fmt(breakdown.integrated_variance, 12)}")
    print(f"mise:                    {_fmt(breakdown.mise, 12)}")
    print(f"amise:                   {_fmt(breakdown.amise, 12)}")
    print(f"frequency mise:          {_fmt(freq_mise, 12)}")
    if args.out:
        # one column per per-target array, x_values first
        names = [f.name for f in fields(breakdown) if np.ndim(getattr(breakdown, f.name))]
        columns = zip(*(getattr(breakdown, name) for name in names))
        _write_csv(args.out, ["x", *names[1:]], [[x, *(_fmt(v, 12) for v in vals)] for x, *vals in columns])
    return 0


def _cmd_kernel_info(args) -> int:
    kernel = _parse_kernel(args.kernel)
    if args.x_max < 0:
        raise _UsageError(f"--x-max must be >= 0, got {args.x_max}")
    default = 0.0 if kernel.family is KernelFamily.DIRAC else 0.1
    h_list = [_fixed_bandwidth(kernel, h) for h in args.h_list or [default]]
    n_rows = (args.x_max + 1) * len(h_list)
    if n_rows > _KERNEL_INFO_MAX_ROWS:
        raise _UsageError(f"--x-max and --h-list make {n_rows} rows, past the limit of {_KERNEL_INFO_MAX_ROWS}")
    xs = range(0, args.x_max + 1)
    headers = ["x", "h", "modal_prob", "mean", "variance", "modal_limit", "r_pois_binom", "r_negbin_pois"]
    rows = []
    for x in xs:
        limit = modal_limit(kernel, x)
        r1 = modal_limit_ratio_poisson_binomial(x)
        r2 = modal_limit_ratio_negbin_poisson(x)
        for h in h_list:
            rows.append(
                [
                    x,
                    _fmt(h),
                    _fmt(modal_probability(kernel, x, h), 12),
                    _fmt(kernel_mean(kernel, x, h), 12),
                    _fmt(kernel_variance(kernel, x, h), 12),
                    _fmt(limit, 12),
                    _fmt(r1, 12),
                    _fmt(r2, 12),
                ]
            )
    _print_table(headers, rows, args.out)
    return 0


def _cmd_reproduce(args) -> int:
    if args.table in (1, 2, 3):
        with _usage_errors():  # a bad seed is refused before the study runs
            (reproduce.table1_config if args.table == 1 else reproduce.table23_config)(args.seed)
    if args.table == 1:
        rows = reproduce.run_table1(args.seed)
        _print_table(
            ["n", "kernel_ise", "reference", "rel_err", "frequency_ise", "reference_f", "rel_err_f"],
            [
                [r["n"], _fmt(r["kernel_mean_ise"]), _fmt(r["kernel_reference"]),
                 f"{r['kernel_rel_err']:+.1%}", _fmt(r["frequency_mean_ise"]),
                 _fmt(r["frequency_reference"]), f"{r['frequency_rel_err']:+.1%}"]
                for r in rows
            ],
        )
    elif args.table in (2, 3):
        report = reproduce.run_table23_study(args.seed)
        if args.table == 2:
            rows = reproduce.table2_rows(report)
            _print_table(
                ["kernel", "n", "h_mean", "reference", "rel_err", "h_sd", "reference_sd"],
                [
                    [r["kernel"], r["n"], _fmt(r["h_mean"], 4), _fmt(r["reference_mean"]),
                     f"{r['rel_err_mean']:+.1%}", _fmt(r["h_sd"], 4), _fmt(r["reference_sd"])]
                    for r in rows
                ],
            )
        else:
            rows = reproduce.table3_rows(report)
            _print_table(
                ["kernel", "n", "mise_x1000", "reference", "rel_err", "ibias_x1000", "ref_ibias", "ivar_x1000",
                 "ref_ivar", "mc_ise_x1000"],
                [
                    [r["kernel"], r["n"], _fmt(r["mise_x1000"], 4), _fmt(r["reference_mise_x1000"]),
                     f"{r['rel_err']:+.1%}", _fmt(r["ibias_x1000"], 4), _fmt(r["reference_ibias_x1000"]),
                     _fmt(r["ivar_x1000"], 4), _fmt(r["reference_ivar_x1000"]), _fmt(r["mc_mise_x1000"], 4)]
                    for r in rows
                ],
            )
            print("# mise/ibias/ivar: exact risk of the raw estimator at each replicate's h_cv, "
                  "averaged over replicates (dirac: (1 - sum f^2)/n)")
            print("# mc_ise: Monte Carlo mean ISE of the replicate estimates")
    else:
        rows = reproduce.table5_rows()
        _print_table(
            ["dataset", "kernel", "ise@ref_h", "reference", "rel_err", "own_h", "own_ise", "winner"],
            [
                [r["dataset"], r["kernel"], _fmt(r["ise_at_reference_h"], 4), _fmt(r["reference_ise"]),
                 f"{r['rel_err']:+.1%}", _fmt(r["own_h"], 4), _fmt(r["own_ise"], 4),
                 "*" if r["own_winner"] else ""]
                for r in rows
            ],
        )
        print("# * marks the smallest own-selection ISE per dataset")
    return 0


@functools.cache  # built once per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dks", description="Discrete-kernel estimation of count-data p.m.f.s")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate a p.m.f. from count data")
    p_est.add_argument("--data", required=True, help="path to a count file or builtin:NAME")
    p_est.add_argument("--kernel", required=True, help=_KERNEL_HELP)
    group = p_est.add_mutually_exclusive_group()
    group.add_argument("--h", type=float, help="fixed bandwidth")
    group.add_argument("--cv", action="store_true", help="select the bandwidth by cross-validation")
    p_est.add_argument("--normalize", action="store_true", help="include the normalized column")
    p_est.add_argument("--out", help="write the table as CSV")
    p_est.set_defaults(func=_cmd_estimate)

    p_cv = sub.add_parser("cv", help="cross-validation bandwidth selection")
    p_cv.add_argument("--data", required=True)
    p_cv.add_argument("--kernel", required=True, help=_KERNEL_HELP)
    p_cv.add_argument("--h-min", type=float, dest="h_min")
    p_cv.add_argument("--h-max", type=float, dest="h_max")
    p_cv.add_argument("--grid", type=int, default=64)
    p_cv.add_argument("--out")
    p_cv.set_defaults(func=_cmd_cv)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo study")
    p_sim.add_argument("--true", required=True, help="poisson:MU")
    p_sim.add_argument("--sizes", required=True, type=lambda s: [int(t) for t in s.split(",")])
    p_sim.add_argument("--replicates", type=int, default=250)
    p_sim.add_argument("--kernels", required=True, type=lambda s: s.split(","))
    p_sim.add_argument("--seed", type=int, default=reproduce.DEFAULT_SEED)
    p_sim.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True)
    p_sim.add_argument("--out")
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.set_defaults(func=_cmd_simulate)

    p_risk = sub.add_parser("risk", help="exact risk of the raw estimator")
    p_risk.add_argument("--true", required=True, help="poisson:MU")
    p_risk.add_argument("--kernel", required=True, help=_KERNEL_HELP)
    p_risk.add_argument("--h", type=float)
    p_risk.add_argument("--n", type=int, required=True)
    p_risk.add_argument("--out")
    p_risk.set_defaults(func=_cmd_risk)

    p_info = sub.add_parser("kernel-info", help="kernel shape and comparison tables")
    p_info.add_argument("--kernel", required=True, help=_KERNEL_HELP)
    p_info.add_argument("--x-max", type=int, dest="x_max", default=10)
    p_info.add_argument("--h-list", dest="h_list", help="bandwidths (default 0.1; 0 for dirac)",
                        type=lambda s: [float(t) for t in s.split(",")])
    p_info.add_argument("--out")
    p_info.set_defaults(func=_cmd_kernel_info)

    p_rep = sub.add_parser("reproduce", help="recompute an embedded reference table")
    p_rep.add_argument("--table", type=int, choices=(1, 2, 3, 5), required=True)
    p_rep.add_argument("--seed", type=int, default=reproduce.DEFAULT_SEED)
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args) or 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        raise  # the caller owns stdout; main() handles a closed pipe
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        # a failed Python-level allocation raises MemoryError without a message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run_cli()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (``dks ... | head``).  Point stdout
        # at devnull so that the flush at exit does not fail again, and exit
        # as a shell reports a writer ended by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
