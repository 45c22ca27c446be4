"""Write float-hex fingerprints of a fixed set of ``dks`` computations.

Usage: python3 tools/bit_identity.py TREE OUTDIR

The package is imported from ``TREE/src``.  Each file in OUTDIR holds one
line per result, a label followed by the ``float.hex`` of every number, so
two trees compute the same floats, bit for bit, when

    diff -r OUTDIR_A OUTDIR_B

prints nothing.  The set:

- ``study-threads1`` and ``study-threads2``: the seed-42 table-2/3 study
  (``reproduce.run_table23_study``), serially and in a pool of two workers
  (``DKS_THREADS=2``); every cell's ``h_values`` and ``mean_mise``;
- ``small-r-threads1`` and ``small-r-threads2``: the benchmark's pool shape,
  ``table23_config`` at 4 replicates for seeds 42-44 (25 cells of 4
  replicates each), serially and in a pool of two workers; every cell's
  ``h_values``, ``mean_mise``, ``ibias`` and ``ivar``.  The two files hold the
  same lines, so ``diff`` between them also compares pooled with serial;
- ``selections``: ``select_bandwidth`` on seeded Poisson(2) samples
  (n = 15-200) for the binomial, poisson, negbin and triangular (p = 1, 2, 3)
  kernels on their default domains, and for poisson and negbin on a domain
  whose first CV term extends past the default range; each line is the whole
  ``cv_curve``, plus ``cv_score`` at an array of bandwidths and at scalars;
- ``wide``: the same on wide samples (up to 400 distinct values spread
  over 0..400, whose grids take one bandwidth a pass, and two mid-width
  samples: after the first pass, which holds one bandwidth, the narrower
  one's binomial and triangular grid passes hold three bandwidths and its
  poisson ones two; the wider one's binomial grids are large enough for the
  masked ``exp``), with the raw estimate at the selected bandwidth;
- ``batches``: ``select_bandwidths`` under the poisson and negbin kernels
  on runs of samples: a Poisson(60) draw and four Poisson(40) draws, whose
  negbin first CV terms need 64-80 rows past the default range, and a mixed
  batch of three that fits 2^14 cells with 64 such rows but not with the 80
  that its Poisson(60) draw needs, so negbin sums that draw's last rows in
  grids of its own, in lockstep with the batch; each line is a whole
  ``cv_curve``;
- ``risk``: ``exact_mise`` breakdowns (per-target bias, variance,
  off-target terms, MISE and AMISE) for Poisson and tabulated truths, the
  dirac kernel and six kernels at three bandwidths each.

It takes about 30 s on 2 vCPUs, most of it in the two seed-42 studies.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from pathlib import Path


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in values)


def _curve(selection) -> str:
    return " ".join(f"{h.hex()}:{score.hex()}" for h, score in selection.cv_curve)


def _study(REP, threads: str) -> list[str]:
    os.environ["DKS_THREADS"] = threads
    report = REP.run_table23_study(42)
    return [f"{c.kernel} n={c.n} mean_mise={float(c.mean_mise).hex()} h_values={_hex(c.h_values)}"
            for c in report.cells]


def _small_r_studies(REP, S, threads: str) -> list[str]:
    os.environ["DKS_THREADS"] = threads
    lines = []
    for seed in (42, 43, 44):
        report = S.run_study(dataclasses.replace(REP.table23_config(seed), replicates=4))
        lines += [f"seed={seed} {c.kernel} n={c.n} mean_mise={float(c.mean_mise).hex()} "
                  f"ibias={float(c.ibias).hex()} ivar={float(c.ivar).hex()} h_values={_hex(c.h_values)}"
                  for c in report.cells]
    return lines


def _selection_lines(E, label, sample, kernel, config, estimate=False) -> list[str]:
    sel = E.select_bandwidth(sample, kernel, config)
    lines = [f"{label} {kernel.label} curve {_curve(sel)}"]
    hs = [float(h) for h, _ in sel.cv_curve[::7]]
    lines.append(f"{label} {kernel.label} cv-array {_hex(E.cv_score(sample, kernel, hs))}")
    lines.append(f"{label} {kernel.label} cv-scalar {_hex(E.cv_score(sample, kernel, h) for h in hs[:3])}")
    if estimate:
        lines.append(f"{label} {kernel.label} estimate {_hex(E.kernel_estimate_raw(sample, kernel, sel.h_cv).values)}")
    return lines


def _selections(E, K, R, S) -> list[str]:
    f = R.PoissonPmf(2.0)
    kernels = (K.binomial(), K.poisson(), K.negbin(), K.triangular(1), K.triangular(2), K.triangular(3))
    extending = E.SearchConfig(3.0, 6.0, 16)
    lines = []
    for r in range(60):
        n = (15, 25, 50, 100, 200)[r % 5]
        sample = S.sample_from_pmf(f, n, S.replicate_stream(42, n, r))
        for kernel in kernels:
            lines += _selection_lines(E, f"r={r} n={n}", sample, kernel, None)
        if r < 10:
            for kernel in (K.poisson(), K.negbin()):
                lines += _selection_lines(E, f"r={r} n={n} extending", sample, kernel, extending)
    return lines


def _wide(np, E, K) -> list[str]:
    rng = np.random.default_rng(13)
    samples = {
        "uniform-0..300": E.Sample.from_values(rng.integers(0, 301, 300)),
        "squares-mod-401": E.Sample.from_values([i * i % 401 for i in range(401)]),
        "negbin-mean-120": E.Sample.from_values(np.minimum(rng.negative_binomial(4, 4 / 124, 250), 400)),
        "uniform-0..60": E.Sample.from_values(rng.integers(0, 61, 120)),
        "uniform-0..120": E.Sample.from_values(rng.integers(0, 121, 200)),
    }
    lines = []
    for label, sample in samples.items():
        for kernel in (K.binomial(), K.poisson(), K.negbin(), K.triangular(1)):
            lines += _selection_lines(E, label, sample, kernel, None, estimate=True)
    return lines


def _batches(np, E, K, R, S) -> list[str]:
    wide = [E.Sample.from_values(np.random.default_rng(4).poisson(60, 12))]
    wide += [S.sample_from_pmf(R.PoissonPmf(40.0), 30, S.replicate_stream(7, 30, r)) for r in range(4)]
    mixed = [wide[0], E.Sample.from_values(range(0, 58, 2)),
             E.Sample.from_values(np.random.default_rng(6).integers(0, 30, 40))]
    lines = []
    for label, samples in (("wide", wide), ("mixed", mixed)):
        for kernel in (K.poisson(), K.negbin()):
            lines += [f"{label} {kernel.label} {i} curve {_curve(sel)}"
                      for i, sel in enumerate(E.select_bandwidths(samples, kernel))]
    return lines


def _risk(np, K, R) -> list[str]:
    truths = [R.PoissonPmf(mu) for mu in (0.5, 2.0, 7.0, 40.0)]
    truths.append(R.TabulatedPmf(np.array([0.1, 0.3, 0.25, 0.2, 0.1, 0.05])))
    kernels = {
        K.binomial(): (0.05, 0.5, 1.0),
        K.poisson(): (0.05, 0.5, 3.0),
        K.negbin(): (0.05, 0.5, 3.0),
        K.triangular(1): (0.1, 1.0, 5.0),
        K.triangular(2): (0.1, 1.0, 5.0),
        K.triangular(3): (0.1, 1.0, 5.0),
    }
    lines = []
    for f in truths:
        cases = [(K.dirac(), 0.0)] + [(k, h) for k, hs in kernels.items() for h in hs]
        for kernel, h in cases:
            b = R.exact_mise(kernel, h, f, 25)
            fields = [b.bias, b.variance, b.bias_off_target, b.variance_remainder,
                      [b.integrated_squared_bias, b.integrated_variance, b.mise, b.amise]]
            lines.append(f"{f.label()} {kernel.label} h={h!r} " + " | ".join(_hex(v) for v in fields))
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/bit_identity.py TREE OUTDIR", file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve() / "src"
    outdir = Path(argv[1])
    if not (src / "dks").is_dir():
        print(f"no dks package under {src}", file=sys.stderr)
        return 1
    if outdir.exists():
        print(f"{outdir} exists; give a new directory", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src)  # for the study's pool workers
    import numpy as np

    from dks import estimation as E
    from dks import kernels as K
    from dks import reproduce as REP
    from dks import risk as R
    from dks import simulation as S

    outdir.mkdir(parents=True)
    parts = {
        "study-threads1": lambda: _study(REP, "1"),
        "study-threads2": lambda: _study(REP, "2"),
        "small-r-threads1": lambda: _small_r_studies(REP, S, "1"),
        "small-r-threads2": lambda: _small_r_studies(REP, S, "2"),
        "selections": lambda: _selections(E, K, R, S),
        "wide": lambda: _wide(np, E, K),
        "batches": lambda: _batches(np, E, K, R, S),
        "risk": lambda: _risk(np, K, R),
    }
    for name, compute in parts.items():
        start = time.monotonic()
        lines = compute()
        (outdir / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        print(f"{name}: {len(lines)} lines ({time.monotonic() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
