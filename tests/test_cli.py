import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dks

from dks import cli
from dks.cli import run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHelpAndUsage:
    def test_top_level_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "estimate" in out and "reproduce" in out

    @pytest.mark.parametrize(
        "command", ["estimate", "cv", "simulate", "risk", "kernel-info", "reproduce"]
    )
    def test_subcommand_help_documents_flags(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert "--" in out

    def test_unknown_kernel_is_usage_error(self, capsys):
        code, _, err = run(capsys, "estimate", "--data", "builtin:safou", "--kernel", "gauss", "--h", "0.1")
        assert code == 1

    def test_bad_number_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "estimate", "--data", "builtin:safou", "--kernel", "binomial", "--h", "abc")
        assert code == 1

    def test_missing_bandwidth_is_usage_error(self, capsys):
        code, _, err = run(capsys, "estimate", "--data", "builtin:safou", "--kernel", "binomial")
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--true", "poisson:2", "--sizes", "15", "--replicates", "0", "--kernels", "dirac"],
             "replicates must be >= 1"),
            (["simulate", "--true", "poisson:2", "--sizes", "1", "--replicates", "2", "--kernels", "dirac"],
             "sample sizes must be >= 2"),
            (["estimate", "--data", "builtin:safou", "--kernel", "poisson", "--h", "-1"],
             "poisson kernel needs h > 0, got -1.0"),
            (["kernel-info", "--kernel", "binomial", "--h-list", "0.5,1.5"],
             "binomial kernel needs h in (0, 1], got 1.5"),
            (["risk", "--true", "poisson:2", "--kernel", "poisson", "--h", "0.3", "--n", "0"],
             "n must be >= 1"),
            (["risk", "--true", "poisson:-1", "--kernel", "poisson", "--h", "0.3", "--n", "25"],
             "mu must be positive"),
            (["risk", "--true", "poisson:inf", "--kernel", "binomial", "--h", "0.5", "--n", "10"],
             "mu must be finite, got inf"),
            (["simulate", "--true", "poisson:inf", "--sizes", "15", "--replicates", "2", "--kernels", "dirac"],
             "mu must be finite, got inf"),
            (["cv", "--data", "builtin:safou", "--kernel", "triangular:0"],
             "triangular kernel needs an integer arm >= 1"),
            (["simulate", "--true", "poisson:2", "--sizes", "15", "--replicates", "2", "--kernels", "dirac",
              "--seed", "-1"], "seed must be >= 0, got -1"),
            (["reproduce", "--table", "1", "--seed", "-5"], "seed must be >= 0, got -5"),
            (["reproduce", "--table", "2", "--seed", "-5"], "seed must be >= 0, got -5"),
            (["reproduce", "--table", "3", "--seed", "-1"], "seed must be >= 0, got -1"),
        ],
        ids=["replicates", "sizes", "estimate-h", "h-list", "risk-n", "true-mu", "true-mu-inf", "simulate-mu-inf",
             "triangular-arm", "simulate-seed", "table1-seed", "table2-seed", "table3-seed"],
    )
    def test_out_of_range_flag_value_is_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"usage error: {message}\n"

    def test_unknown_table_rejected(self, capsys):
        code, _, _ = run(capsys, "reproduce", "--table", "4")
        assert code == 1


class TestEstimate:
    def test_builtin_dirac_prints_frequencies(self, capsys):
        code, out, _ = run(capsys, "estimate", "--data", "builtin:safou", "--kernel", "dirac")
        assert code == 0
        lines = {row.split()[0]: row.split()[1] for row in out.splitlines() if row and row[0].isdigit()}
        assert float(lines["30"]) == pytest.approx(28 / 60, rel=1e-9)
        assert float(lines["31"]) == pytest.approx(21 / 60, rel=1e-9)
        assert float(lines["32"]) == pytest.approx(11 / 60, rel=1e-9)

    def test_normalized_column_and_csv_out(self, capsys, tmp_path):
        out_path = tmp_path / "est.csv"
        code, out, _ = run(
            capsys, "estimate", "--data", "builtin:safou", "--kernel", "binomial",
            "--h", "0.1", "--normalize", "--out", str(out_path),
        )
        assert code == 0
        rows = list(csv.DictReader(open(out_path)))
        assert set(rows[0]) == {"x", "raw", "normalized"}
        total = sum(float(r["normalized"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_cv_on_singleton_is_runtime_error(self, capsys, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text("5\n")
        code, _, err = run(capsys, "estimate", "--data", str(p), "--kernel", "binomial", "--cv")
        assert code == 2
        assert "error" in err

    def test_file_format_sniffing(self, capsys, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("value,count\n2,3\n4,1\n")
        code, out, _ = run(capsys, "estimate", "--data", str(p), "--kernel", "dirac")
        assert code == 0
        assert "0.75" in out


class TestCv:
    def test_curve_output(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys, "cv", "--data", "builtin:safou", "--kernel", "triangular",
            "--grid", "24", "--out", str(out_path),
        )
        assert code == 0
        assert "h_cv=" in out
        rows = list(csv.DictReader(open(out_path)))
        assert len(rows) >= 24
        hs = [float(r["h"]) for r in rows]
        assert hs == sorted(hs)


    def test_grid_below_minimum_is_usage_error(self, capsys):
        code, _, err = run(capsys, "cv", "--data", "builtin:safou", "--kernel", "binomial", "--grid", "8")
        assert code == 1
        assert "usage error" in err and "grid_points" in err

    def test_grid_above_maximum_is_usage_error(self, capsys):
        code, out, err = run(capsys, "cv", "--data", "builtin:safou", "--kernel", "binomial", "--grid", "100000000")
        assert (code, out) == (1, "")
        assert err == "usage error: bad search domain: grid_points must be <= 10000, got 100000000\n"

    def test_empty_search_domain_is_usage_error(self, capsys):
        code, _, err = run(capsys, "cv", "--data", "builtin:safou", "--kernel", "poisson",
                           "--h-min", "2", "--h-max", "2")
        assert code == 1
        assert "usage error" in err and "h_min < h_max" in err

    def test_domain_outside_family_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "cv", "--data", "builtin:safou", "--kernel", "binomial", "--h-max", "2")
        assert code == 1
        assert "usage error: bad search domain" in err and "binomial kernel needs h in (0, 1]" in err


class TestSimulate:
    def test_deterministic_output_bytes(self, capsys):
        args = ("simulate", "--true", "poisson:2", "--sizes", "25", "--replicates", "1",
                "--kernels", "dirac", "--seed", "1")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_report(self, capsys, tmp_path):
        out_path = tmp_path / "study.json"
        code, _, _ = run(
            capsys, "simulate", "--true", "poisson:2", "--sizes", "15", "--replicates", "2",
            "--kernels", "dirac,triangular:1", "--seed", "3",
            "--out", str(out_path), "--format", "json",
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert {c["kernel"] for c in data["cells"]} == {"dirac", "triangular(p=1)"}
        assert len(data["cells"][1]["h_values"]) == 2

    def test_bad_distribution_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "--true", "zipf:2", "--sizes", "15",
                         "--replicates", "1", "--kernels", "dirac")
        assert code == 1


class TestRisk:
    def test_summary_lines(self, capsys):
        code, out, _ = run(capsys, "risk", "--true", "poisson:2", "--kernel", "binomial",
                           "--h", "0.1", "--n", "25")
        assert code == 0
        assert "mise:" in out and "amise:" in out and "frequency mise:" in out

    def test_per_target_csv(self, capsys, tmp_path):
        out_path = tmp_path / "risk.csv"
        code, _, _ = run(capsys, "risk", "--true", "poisson:2", "--kernel", "poisson",
                         "--h", "0.2", "--n", "50", "--out", str(out_path))
        assert code == 0
        rows = list(csv.DictReader(open(out_path)))
        assert {"x", "bias", "variance", "bias_off_target", "variance_remainder"} == set(rows[0])
        assert out_path.read_text().splitlines()[0] == "x,bias,variance,bias_off_target,variance_remainder"

    def test_missing_h_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "risk", "--true", "poisson:2", "--kernel", "poisson", "--n", "25")
        assert code == 1

    @pytest.mark.parametrize("kernel", ["poisson", "negbin"])
    def test_huge_bandwidth_names_the_tail_scan_limit(self, capsys, kernel):
        # the negbin variance overflows to inf, and the poisson tail lies past
        # any array numpy can allocate
        code, out, err = run(capsys, "risk", "--true", "poisson:2", "--kernel", kernel, "--h", "1e300", "--n", "10")
        assert (code, out) == (2, "")
        assert err == (
            f"error: the {kernel} kernel at x = 18, h = 1e+300 keeps more than 1e-12 of its mass "
            f"past the tail scan limit of 16777216\n"
        )

    @pytest.mark.parametrize(
        "argv, eps",
        [
            (("risk", "--true", "poisson:1e300", "--kernel", "binomial", "--h", "0.5", "--n", "10"), "1e-16"),
            (("simulate", "--true", "poisson:1e300", "--sizes", "15", "--replicates", "2", "--kernels", "dirac"),
             "1e-12"),
        ],
        ids=["risk", "simulate"],
    )
    def test_truth_past_the_tail_scan_limit_names_the_truth(self, capsys, argv, eps):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: the truth poisson(mu=1e+300) keeps more than {eps} of its mass "
            f"past the tail scan limit of 16777216\n"
        )

    def test_grid_past_the_cell_limit_is_runtime_error(self, capsys):
        # a 31,227 x 31,228 risk grid (7.27 GiB) is refused before it is built
        import tracemalloc

        tracemalloc.start()
        try:
            code, out, err = run(capsys, "risk", "--true", "poisson:3e4", "--kernel", "binomial", "--h", "0.5",
                                 "--n", "10")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == (
            "error: the binomial kernel grid of 31227 targets x 31228 points is past the dense-grid "
            "limit of 16777216 cells\n"
        )
        assert peak < 64 << 20

    def test_allocation_failure_is_runtime_error(self, capsys, monkeypatch):
        # a risk grid too large to allocate; raised here without allocating
        message = "Unable to allocate 731. TiB for an array with shape (10022250, 10022251) and data type float64"

        def exact_mise(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "exact_mise", exact_mise)
        code, out, err = run(capsys, "risk", "--true", "poisson:2", "--kernel", "binomial", "--h", "0.5", "--n", "10")
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_allocation_failure_without_a_message(self, capsys, monkeypatch):
        # what a failed Python-level allocation raises
        def exact_mise(*args):
            raise MemoryError()

        monkeypatch.setattr(cli, "exact_mise", exact_mise)
        code, out, err = run(capsys, "risk", "--true", "poisson:2", "--kernel", "binomial", "--h", "0.5", "--n", "10")
        assert (code, out, err) == (2, "", "error: out of memory\n")


class TestKernelInfo:
    def test_table_columns(self, capsys, tmp_path):
        out_path = tmp_path / "info.csv"
        code, out, _ = run(capsys, "kernel-info", "--kernel", "binomial",
                           "--x-max", "4", "--h-list", "0.1,0.3", "--out", str(out_path))
        assert code == 0
        rows = list(csv.DictReader(open(out_path)))
        assert len(rows) == 5 * 2
        assert float(rows[0]["modal_prob"]) == pytest.approx(0.9, abs=1e-9)

    def test_negative_x_max_is_usage_error(self, capsys):
        code, out, err = run(capsys, "kernel-info", "--kernel", "binomial", "--x-max", "-1")
        assert code == 1
        assert out == ""
        assert err == "usage error: --x-max must be >= 0, got -1\n"

    def test_too_many_rows_is_usage_error(self, capsys):
        # refused before a row is built; 1e8 rows would take hours
        code, out, err = run(capsys, "kernel-info", "--kernel", "poisson", "--x-max", "100000000", "--h-list", "0.5")
        assert (code, out) == (1, "")
        assert err == "usage error: --x-max and --h-list make 100000001 rows, past the limit of 100000\n"
        code, out, err = run(capsys, "kernel-info", "--kernel", "poisson", "--x-max", "49999", "--h-list", "0.5,1,2")
        assert (code, out) == (1, "")
        assert err == "usage error: --x-max and --h-list make 150000 rows, past the limit of 100000\n"


class TestDiracBandwidth:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["estimate", "--data", "builtin:safou", "--kernel", "dirac", "--h", "0.7"],
             "dirac kernel has no bandwidth; h must be 0"),
            (["risk", "--true", "poisson:2", "--kernel", "dirac", "--h", "0.7", "--n", "25"],
             "dirac kernel has no bandwidth; h must be 0"),
            (["kernel-info", "--kernel", "dirac", "--h-list", "0,5"],
             "dirac kernel has no bandwidth; h must be 0"),
            (["cv", "--data", "builtin:safou", "--kernel", "dirac"],
             "the dirac kernel has no bandwidth to select"),
            (["estimate", "--data", "builtin:safou", "--kernel", "dirac", "--cv"],
             "the dirac kernel has no bandwidth to select"),
        ],
        ids=["estimate-h", "risk-h", "h-list", "cv", "estimate-cv"],
    )
    def test_nonzero_or_selected_bandwidth_is_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"usage error: {message}\n"

    def test_zero_or_absent_bandwidth_runs_at_zero(self, capsys):
        base = ["estimate", "--data", "builtin:safou", "--kernel", "dirac"]
        code, plain, _ = run(capsys, *base)
        assert code == 0 and plain.startswith("# kernel=dirac h=0 ")
        assert run(capsys, *base, "--h", "0") == (0, plain, "")
        risk = ["risk", "--true", "poisson:2", "--kernel", "dirac", "--n", "25"]
        code, plain, _ = run(capsys, *risk)
        assert code == 0 and run(capsys, *risk, "--h", "0") == (0, plain, "")
        code, out, _ = run(capsys, "kernel-info", "--kernel", "dirac", "--x-max", "2")
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()[1:]] == ["0", "0", "0"]
        assert run(capsys, "kernel-info", "--kernel", "dirac", "--x-max", "2", "--h-list", "0") == (0, out, "")


class TestParserReuse:
    COMMANDS = [
        ["estimate", "--data", "builtin:safou", "--kernel", "binomial", "--h", "0.1"],
        ["estimate", "--data", "builtin:safou", "--kernel", "binomial", "--h", "0.1", "--cv"],
        ["cv", "--data", "builtin:safou", "--kernel", "binomial", "--grid", "8"],
        ["estimate", "--data", "builtin:hura", "--kernel", "poisson", "--cv", "--normalize"],
        ["kernel-info", "--kernel", "triangular:2", "--x-max", "3", "--h-list", "0.5,2"],
        ["risk", "--help"],
    ]

    def test_commands_in_a_row_match_fresh_processes(self, capsys, monkeypatch):
        # argparse wraps usage and help text to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        env = {**os.environ, "PYTHONPATH": str(Path(dks.__file__).resolve().parents[1])}
        assert cli._build_parser() is cli._build_parser()
        codes = []
        for argv in self.COMMANDS:
            in_process = run(capsys, *argv)
            proc = subprocess.run([sys.executable, "-m", "dks", *argv], capture_output=True, text=True, env=env,
                                  timeout=120)
            assert in_process == (proc.returncode, proc.stdout, proc.stderr), argv
            codes.append(proc.returncode)
        assert codes == [0, 1, 1, 0, 0, 0]


class TestBrokenPipe:
    def test_reader_closing_early_gets_no_error(self, tmp_path):
        # far more output than a pipe holds, so the writer meets the closed end
        data = tmp_path / "wide.txt"
        data.write_text("0\n50000\n")
        env = {**os.environ, "PYTHONPATH": str(Path(dks.__file__).resolve().parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "dks", "estimate", "--data", str(data), "--kernel", "dirac"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"# kernel=dirac h=0 n=2 ")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""


class TestReproduce:
    def test_table5_rows_and_markers(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--table", "5")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("safou", "hura"))]
        assert len(lines) == 8
        winners = [l for l in lines if l.rstrip().endswith("*")]
        assert len(winners) == 2
        assert any(l.startswith("safou") and "triangular" in l for l in winners)
        assert any(l.startswith("hura") and "binomial" in l for l in winners)
