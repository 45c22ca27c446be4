import csv
import hashlib
import io
import json

import pytest

from dks import data_io as D
from dks.simulation import StudyCell, StudyReport


def make_report(cells=None):
    return StudyReport(
        truth="poisson(mu=2)",
        replicates=4,
        seed=11,
        normalize=True,
        cells=cells if cells is not None else [],
    )


def written(tmp_path, report, fmt):
    """The text write_report puts in a file, read back byte for byte."""
    p = tmp_path / f"report.{fmt}"
    D.write_report(report, fmt, p)
    return p.read_bytes().decode("utf-8")


class TestBuiltinDatasets:
    def test_safou(self):
        ds = D.builtin_dataset("safou")
        assert ds.sample.counts == {30: 28, 31: 21, 32: 11}
        assert ds.sample.n == 60
        assert ds.source == "builtin"

    def test_hura(self):
        ds = D.builtin_dataset("hura")
        assert ds.sample.n == 51
        assert ds.sample.counts[29] == 11

    def test_unknown_name_lists_options(self):
        with pytest.raises(ValueError, match="safou"):
            D.builtin_dataset("mango")

    def test_checksums_pinned(self):
        for name in ("safou", "hura"):
            counts = D.builtin_dataset(name).sample.counts
            payload = "\n".join(f"{v}:{c}" for v, c in sorted(counts.items()))
            assert hashlib.sha256(payload.encode()).hexdigest() == D._CHECKSUMS[name]


class TestLoadCounts:
    def test_raw_values(self, tmp_path):
        p = tmp_path / "counts.txt"
        p.write_text("0\n0\n1\n")
        ds = D.load_counts(p)
        assert ds.sample.counts == {0: 2, 1: 1}
        assert ds.source == "file"

    def test_value_count_csv(self, tmp_path):
        p = tmp_path / "safou.csv"
        p.write_text("value,count\n30,28\n31,21\n32,11\n")
        ds = D.load_counts(p)
        assert ds.sample == D.builtin_dataset("safou").sample

    def test_zero_count_rows_dropped(self, tmp_path):
        p = tmp_path / "z.csv"
        p.write_text("value,count\n3,2\n7,0\n")
        ds = D.load_counts(p)
        assert ds.sample.counts == {3: 2}
        assert ds.sample.n == 2

    def test_duplicate_values_summed(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("value,count\n3,2\n3,5\n")
        assert D.load_counts(p).sample.counts == {3: 7}

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0\nfoo\n")
        with pytest.raises(ValueError, match=":2:"):
            D.load_counts(p)
        q = tmp_path / "neg.csv"
        q.write_text("value,count\n-3,2\n")
        with pytest.raises(ValueError, match=":2:"):
            D.load_counts(q)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        with pytest.raises(ValueError):
            D.load_counts(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("value,counts\n1,2\n")
        with pytest.raises(ValueError, match=":1:"):
            D.load_counts(p)


class TestWriteReport:
    def test_empty_study_is_header_only(self, tmp_path):
        lines = written(tmp_path, make_report(), "csv").strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("kernel,n,h_mean,h_sd,mean_mise")

    def test_csv_shape_for_full_grid(self, tmp_path):
        cells = [
            StudyCell(kernel=k, n=n, mean_mise=0.01, ibias=0.004, ivar=0.006,
                      h_mean=0.2, h_sd=0.05, h_values=[0.2])
            for k in ("dirac", "negbin", "poisson", "binomial", "triangular(p=1)")
            for n in (15, 25, 50, 75, 100)
        ]
        rows = list(csv.reader(io.StringIO(written(tmp_path, make_report(cells), "csv"))))
        assert len(rows) == 1 + 25

    def test_csv_scaled_column(self, tmp_path):
        cells = [StudyCell("binomial", 25, 0.0123456, 0.004, 0.006, 0.2, 0.05, [0.2])]
        row = list(csv.DictReader(io.StringIO(written(tmp_path, make_report(cells), "csv"))))[0]
        assert row["mise_x1000"] == "12.3456"
        assert row["mean_mise"] == "0.0123456"

    def test_json_round_trip_identical_values(self, tmp_path):
        cells = [StudyCell("binomial", 25, 0.012345678901234567, 1e-17, 0.9999999999999999,
                           0.07, 0.031, [0.07, 0.0701])]
        report = make_report(cells)
        p = tmp_path / "r.json"
        D.write_report(report, "json", p)
        data = json.loads(p.read_text())
        cell = data["cells"][0]
        assert cell["mean_mise"] == report.cells[0].mean_mise
        assert cell["ibias"] == report.cells[0].ibias
        assert cell["ivar"] == report.cells[0].ivar
        assert cell["h_values"] == report.cells[0].h_values
        assert data["seed"] == 11 and data["normalize"] is True

    def _two_cell_report(self):
        cells = [
            StudyCell("dirac", 15, 0.0123456789, 0.0, 0.0123456789, 0.0, 0.0, [0.0, 0.0]),
            StudyCell("triangular(p=1)", 25, 0.00875, 0.0025, 0.00625, 1.5, 0.25, [1.25, 1.75]),
        ]
        return StudyReport(truth="poisson(mu=2)", replicates=2, seed=11, normalize=False, cells=cells)

    def test_json_text_is_pinned(self, tmp_path):
        assert written(tmp_path, self._two_cell_report(), "json") == (
            "{\n"
            '  "truth": "poisson(mu=2)",\n'
            '  "replicates": 2,\n'
            '  "seed": 11,\n'
            '  "normalize": false,\n'
            '  "cells": [\n'
            "    {\n"
            '      "kernel": "dirac",\n'
            '      "n": 15,\n'
            '      "mean_mise": 0.0123456789,\n'
            '      "ibias": 0.0,\n'
            '      "ivar": 0.0123456789,\n'
            '      "h_mean": 0.0,\n'
            '      "h_sd": 0.0,\n'
            '      "h_values": [\n'
            "        0.0,\n"
            "        0.0\n"
            "      ]\n"
            "    },\n"
            "    {\n"
            '      "kernel": "triangular(p=1)",\n'
            '      "n": 25,\n'
            '      "mean_mise": 0.00875,\n'
            '      "ibias": 0.0025,\n'
            '      "ivar": 0.00625,\n'
            '      "h_mean": 1.5,\n'
            '      "h_sd": 0.25,\n'
            '      "h_values": [\n'
            "        1.25,\n"
            "        1.75\n"
            "      ]\n"
            "    }\n"
            "  ]\n"
            "}\n"
        )

    def test_csv_text_is_pinned(self, tmp_path):
        assert written(tmp_path, self._two_cell_report(), "csv") == (
            "kernel,n,h_mean,h_sd,mean_mise,ibias,ivar,mise_x1000,ibias_x1000,ivar_x1000\n"
            "dirac,15,0,0,0.0123457,0,0.0123457,12.3457,0,12.3457\n"
            "triangular(p=1),25,1.5,0.25,0.00875,0.0025,0.00625,8.75,2.5,6.25\n"
        )

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            D.write_report(make_report(), "yaml", tmp_path / "r.yaml")

    def test_writes_to_path(self, tmp_path):
        p = tmp_path / "out.csv"
        D.write_report(make_report(), "csv", p)
        assert p.read_text().startswith("kernel,")
