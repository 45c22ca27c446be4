# data_io.py
# Built-in datasets, count-data file ingestion, and report serialization.

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .estimation import Sample
from .simulation import StudyReport

__all__ = [
    "Dataset",
    "builtin_dataset",
    "load_counts",
    "write_report",
]

# Pre-adult development time (days) of spiralling whitefly observed on two
# species of fruit tree; value -> number of insects.
_BUILTIN = {
    "safou": {30: 28, 31: 21, 32: 11},
    "hura": {25: 5, 26: 5, 27: 7, 28: 8, 29: 11, 30: 2, 31: 1, 32: 4, 33: 4, 34: 2, 35: 2},
}

_CHECKSUMS = {
    "safou": "ce19d94a059c96af3360a66e295a55d7708fb6603cf392340af0da057ea91c60",
    "hura": "9a5b5d588b588e696a79a9d5fa994f01cc73ece2d37c310ad6537f129124edce",
}


@dataclass(frozen=True)
class Dataset:
    name: str
    sample: Sample
    source: str  # "builtin" or "file"


def _digest(counts: dict[int, int]) -> str:
    payload = "\n".join(f"{v}:{c}" for v, c in sorted(counts.items()))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def builtin_dataset(name: str) -> Dataset:
    """One of the embedded whitefly count datasets ('safou' or 'hura')."""
    if name not in _BUILTIN:
        available = ", ".join(sorted(_BUILTIN))
        raise ValueError(f"unknown dataset {name!r}; available: {available}")
    counts = _BUILTIN[name]
    if _digest(counts) != _CHECKSUMS[name]:
        raise RuntimeError(f"builtin dataset {name!r} failed its checksum")
    return Dataset(name, Sample.from_counts(counts), "builtin")


def _parse_error(path, lineno: int, message: str) -> ValueError:
    return ValueError(f"{path}:{lineno}: {message}")


def load_counts(path) -> Dataset:
    """Read a count dataset from disk.

    A file whose first line starts with 'value' (in any case) is a CSV with
    header ``value,count``: duplicate values are summed and zero-count rows
    drop out of the support.  Any other file holds one non-negative integer
    per line.
    """
    path = Path(path)
    counts: dict[int, int] = {}
    # newline="" as csv.reader needs; a raw line drops its ending through strip()
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        fh.seek(0)
        if first.strip().lower().startswith("value"):
            reader = csv.reader(fh)
            header = next(reader)
            if [c.strip().lower() for c in header] != ["value", "count"]:
                raise _parse_error(path, 1, f"expected header 'value,count', got {header!r}")
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != 2:
                    raise _parse_error(path, lineno, f"expected 2 fields, got {len(row)}")
                try:
                    value = int(row[0])
                    count = int(row[1])
                except ValueError:
                    raise _parse_error(path, lineno, f"non-integer row: {row!r}") from None
                if value < 0:
                    raise _parse_error(path, lineno, f"negative value: {value}")
                if count < 0:
                    raise _parse_error(path, lineno, f"negative count: {count}")
                if count:
                    counts[value] = counts.get(value, 0) + count
        else:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    value = int(text)
                except ValueError:
                    raise _parse_error(path, lineno, f"not an integer: {text!r}") from None
                if value < 0:
                    raise _parse_error(path, lineno, f"negative value: {value}")
                counts[value] = counts.get(value, 0) + 1
    if not counts:
        raise ValueError(f"{path}: no observations found")
    return Dataset(path.stem, Sample.from_counts(counts), "file")


_CSV_COLUMNS = [
    "kernel",
    "n",
    "h_mean",
    "h_sd",
    "mean_mise",
    "ibias",
    "ivar",
    "mise_x1000",
    "ibias_x1000",
    "ivar_x1000",
]


def write_report(report: StudyReport, fmt: str, path) -> None:
    """Write a study report to ``path``.

    CSV carries one row per (kernel, n) with 6-significant-digit reals and
    the MISE-scale columns repeated in units of 1e-3; JSON mirrors the
    report structure at full precision, including the bandwidth arrays.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}; use 'csv' or 'json'")
    with open(path, "w", encoding="utf-8", newline="") as stream:
        if fmt == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            # header goes out even for an empty study
            writer.writerow(_CSV_COLUMNS)
            for c in report.cells:
                reals = (c.h_mean, c.h_sd, c.mean_mise, c.ibias, c.ivar,
                         c.mean_mise * 1e3, c.ibias * 1e3, c.ivar * 1e3)
                writer.writerow([c.kernel, c.n, *(f"{x:.6g}" for x in reals)])
        else:
            json.dump(asdict(report), stream, indent=2)
            stream.write("\n")
