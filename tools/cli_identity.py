"""Record the output of a fixed set of ``dks`` commands run from a source tree.

Usage: python3 tools/cli_identity.py TREE OUTDIR

Each command runs in a subprocess with ``TREE/src`` on the path, in its own
working directory ``OUTDIR/<name>``, with its address space capped at 3 GiB
and a timeout of 300 s (the slowest command, ``reproduce --table 3``, takes
about 17 s on 2 vCPUs), so that a tree which mishandles an out-of-range
command fails in that command rather than exhausting the host.  The
directory then holds ``stdout``, ``stderr``, ``exit`` (the exit code, or
``timeout`` when the command was stopped at the timeout), the input files
``wide.txt``, ``counts.csv`` and ``bad.csv``, and any file the command
wrote; ``--out`` paths are relative, so the path that ``simulate`` echoes is
the same for every tree.  The cap does not change the output of a command
that stays under it.  Two trees give the same CLI output when

    diff -r OUTDIR_A OUTDIR_B

prints nothing.  The set covers every table of ``reproduce``, a study written
as CSV and as JSON, serial and pooled, ``estimate``, ``cv``, ``kernel-info``
and ``risk`` for the kernel families with a bandwidth, and the usage errors
of flag values out of range (a negative ``--x-max``, a zero replicate count,
a sample size below 2, a negative ``--h``, a binomial ``--h-list`` value
above 1, a zero ``--n``, a negative or an infinite Poisson mean and a
triangular arm of 0), so that their exit codes and messages are pinned too,
and the runtime error of a poisson or negbin ``risk`` at ``--h 1e300``, whose
kernel tail lies past the tail scan's limit.  The out-of-range commands that
need the cap are ``risk`` and ``simulate`` against a Poisson(1e300) truth,
whose tail lies past the same limit, ``risk`` against a Poisson(3e4) truth,
whose dense risk grid would take 7.27 GiB, and ``kernel-info`` with an
``--x-max`` of 1e8, which would print 1e8 rows.

The built-in samples span at most 35 integers, so the set also runs
``estimate --cv`` and ``cv`` on ``wide.txt``, a fixed sample spanning 0..400
(the squares modulo 401, no random numbers), and ``risk`` against a
Poisson(40) truth, so that grids hundreds of targets wide are compared too.
``counts.csv`` is a value-count file with a mixed-case ``Value,Count``
header, a duplicated value and a zero-count row, read by ``estimate`` and
``cv``; ``bad.csv`` has a negative count on line 3, a runtime error whose
message names the file by its relative path.  Together they pin the
detection of the file format.  The dirac kernel is run at ``h = 0`` and with
its default ``--h-list``, and with a nonzero ``--h``, a nonzero ``--h-list``
value, ``cv`` and ``estimate --cv``, which are usage errors.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

_KERNELS = ("binomial", "poisson", "negbin", "triangular", "triangular:2")
_INPUTS = {
    "wide.txt": "".join(f"{i * i % 401}\n" for i in range(401)),
    "counts.csv": "Value,Count\n3,4\n0,2\n3,1\n7,0\n12,5\n1,3\n",
    "bad.csv": "value,count\n2,5\n4,-1\n6,2\n",
}
_ADDRESS_SPACE = 3 << 30  # bytes, per command
_TIMEOUT_S = 300
_SIMULATE = ["simulate", "--true", "poisson:2", "--sizes", "15,25", "--replicates", "20",
             "--kernels", "dirac,binomial,poisson,negbin,triangular:1", "--seed", "7"]


def _commands() -> list[tuple[str, list[str], dict[str, str]]]:
    """(name, dks arguments, extra environment) for each command."""
    cmds = [(f"reproduce-{t}", ["reproduce", "--table", str(t)], {}) for t in (1, 2, 3, 5)]
    for fmt in ("csv", "json"):
        for threads in ("1", "2"):
            cmds.append((f"simulate-{fmt}-threads{threads}",
                         _SIMULATE + ["--format", fmt, "--out", f"study.{fmt}"],
                         {"DKS_THREADS": threads}))
    for k in _KERNELS:
        tag = k.replace(":", "")
        cmds.append((f"estimate-hura-{tag}",
                     ["estimate", "--data", "builtin:hura", "--kernel", k, "--cv", "--normalize",
                      "--out", "out.csv"], {}))
        cmds.append((f"cv-safou-{tag}",
                     ["cv", "--data", "builtin:safou", "--kernel", k, "--out", "out.csv"], {}))
    for k in ("triangular", "triangular:2", "binomial", "negbin"):
        tag = k.replace(":", "")
        cmds.append((f"kernel-info-{tag}",
                     ["kernel-info", "--kernel", k, "--x-max", "12", "--h-list", "0.1,0.5,1",
                      "--out", "out.csv"], {}))
        cmds.append((f"risk-{tag}",
                     ["risk", "--true", "poisson:2", "--kernel", k, "--h", "0.3", "--n", "25",
                      "--out", "out.csv"], {}))
    for k in ("binomial", "poisson", "negbin", "triangular"):
        cmds.append((f"estimate-wide-{k}",
                     ["estimate", "--data", "wide.txt", "--kernel", k, "--cv", "--normalize", "--out", "out.csv"],
                     {}))
        cmds.append((f"cv-wide-{k}", ["cv", "--data", "wide.txt", "--kernel", k, "--out", "out.csv"], {}))
    cmds += [
        ("estimate-counts-binomial", ["estimate", "--data", "counts.csv", "--kernel", "binomial", "--h", "0.3",
                                      "--normalize", "--out", "out.csv"], {}),
        ("cv-counts-negbin", ["cv", "--data", "counts.csv", "--kernel", "negbin", "--out", "out.csv"], {}),
        ("estimate-bad-counts", ["estimate", "--data", "bad.csv", "--kernel", "poisson", "--h", "0.3"], {}),
    ]
    cmds.append(("risk-poisson40-binomial-h1",
                 ["risk", "--true", "poisson:40", "--kernel", "binomial", "--h", "1", "--n", "25",
                  "--out", "out.csv"], {}))
    dirac = ["--kernel", "dirac"]
    cmds += [
        ("estimate-dirac-h0", ["estimate", "--data", "builtin:safou", *dirac, "--h", "0"], {}),
        ("kernel-info-dirac", ["kernel-info", *dirac, "--x-max", "3"], {}),
        ("estimate-dirac-h", ["estimate", "--data", "builtin:safou", *dirac, "--h", "0.7"], {}),
        ("risk-dirac-h", ["risk", "--true", "poisson:2", *dirac, "--h", "0.7", "--n", "25"], {}),
        ("kernel-info-dirac-h-list", ["kernel-info", *dirac, "--h-list", "5"], {}),
        ("cv-dirac", ["cv", "--data", "builtin:safou", *dirac], {}),
        ("estimate-dirac-cv", ["estimate", "--data", "builtin:safou", *dirac, "--cv"], {}),
    ]
    cmds.append(("kernel-info-negative-x-max", ["kernel-info", "--kernel", "binomial", "--x-max", "-1"], {}))
    sim = ["simulate", "--true", "poisson:2", "--kernels", "dirac"]
    cmds += [
        ("simulate-zero-replicates", sim + ["--sizes", "15", "--replicates", "0"], {}),
        ("simulate-size-one", sim + ["--sizes", "1"], {}),
        ("estimate-negative-h", ["estimate", "--data", "builtin:hura", "--kernel", "poisson", "--h", "-1"], {}),
        ("kernel-info-binomial-h-above-one", ["kernel-info", "--kernel", "binomial", "--h-list", "1.5"], {}),
        ("risk-zero-n", ["risk", "--true", "poisson:2", "--kernel", "poisson", "--h", "0.3", "--n", "0"], {}),
        ("risk-negative-mean", ["risk", "--true", "poisson:-1", "--kernel", "poisson", "--h", "0.3",
                                "--n", "25"], {}),
        ("risk-infinite-mean", ["risk", "--true", "poisson:inf", "--kernel", "binomial", "--h", "0.5",
                                "--n", "10"], {}),
        ("simulate-infinite-mean", ["simulate", "--true", "poisson:inf", "--sizes", "15", "--replicates", "2",
                                    "--kernels", "dirac"], {}),
        ("cv-triangular-arm-zero", ["cv", "--data", "builtin:safou", "--kernel", "triangular:0"], {}),
    ]
    for k in ("poisson", "negbin"):
        cmds.append((f"risk-huge-h-{k}", ["risk", "--true", "poisson:2", "--kernel", k, "--h", "1e300",
                                          "--n", "10"], {}))
    risk = ["--kernel", "binomial", "--h", "0.5", "--n", "10"]
    cmds += [
        ("risk-huge-mean", ["risk", "--true", "poisson:1e300", *risk], {}),
        ("simulate-huge-mean", ["simulate", "--true", "poisson:1e300", "--sizes", "15", "--replicates", "2",
                                "--kernels", "dirac"], {}),
        ("risk-dense-grid-past-limit", ["risk", "--true", "poisson:3e4", *risk], {}),
        ("kernel-info-huge-x-max", ["kernel-info", "--kernel", "poisson", "--x-max", "100000000",
                                    "--h-list", "0.5"], {}),
    ]
    return cmds


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/cli_identity.py TREE OUTDIR", file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve() / "src"
    outdir = Path(argv[1])
    if not (src / "dks").is_dir():
        print(f"no dks package under {src}", file=sys.stderr)
        return 1
    if outdir.exists():
        print(f"{outdir} exists; give a new directory", file=sys.stderr)
        return 1
    for name, args, extra in _commands():
        workdir = outdir / name
        workdir.mkdir(parents=True)
        for filename, text in _INPUTS.items():
            (workdir / filename).write_text(text, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "DKS_THREADS": "1", **extra}
        start = time.monotonic()
        # In a session of its own, so that a timeout stops its pool workers too.
        with subprocess.Popen([sys.executable, "-m", "dks", *args], cwd=workdir, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              preexec_fn=_cap_address_space, start_new_session=True) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=_TIMEOUT_S)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                stdout, stderr = proc.communicate()
                code = "timeout"
        (workdir / "stdout").write_bytes(stdout)
        (workdir / "stderr").write_bytes(stderr)
        (workdir / "exit").write_text(f"{code}\n")
        print(f"{name}: exit {code} ({time.monotonic() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
