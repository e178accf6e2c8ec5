"""Binned force-vs-distance measurements and their CSV form.

The on-disk schema is ``d_um, force_udyne, sigma_udyne, n_samples,
bin_width_um`` with a mandatory header and ``#`` comment lines.  The
dataset object keeps the file's native micrometer/microdyne values (so a
load/save round trip is bit-identical) and exposes SI views for the
physics layers.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .provenance import atomic_write_text
from .units import UDYNE

__all__ = ["DatasetError", "ForceDataset", "load_dataset", "save_dataset"]

_COLUMNS = ["d_um", "force_udyne", "sigma_udyne", "n_samples", "bin_width_um"]


class DatasetError(ValueError):
    """Malformed or invariant-violating dataset; carries offending line numbers."""

    def __init__(self, message: str, lines: list[int] | None = None):
        super().__init__(message)
        self.lines = lines or []


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ForceDataset:
    """Sorted binned points (d, F, sigma, n, bin width) in native um/udyne units."""

    d_um: np.ndarray
    force_udyne: np.ndarray
    sigma_udyne: np.ndarray
    n_samples: np.ndarray
    bin_width_um: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("d_um", "force_udyne", "sigma_udyne", "bin_width_um"):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "n_samples", _frozen(np.asarray(self.n_samples, dtype=int)))
        n = len(self.d_um)
        if n == 0:
            raise DatasetError("dataset is empty")
        for name in ("force_udyne", "sigma_udyne", "n_samples", "bin_width_um"):
            if len(getattr(self, name)) != n:
                raise DatasetError(f"column {name} has length {len(getattr(self, name))}, expected {n}")
        if np.any(self.d_um <= 0):
            raise DatasetError("all distances must be > 0")
        if np.any(self.sigma_udyne <= 0):
            raise DatasetError("all sigma must be > 0")
        if np.any(self.n_samples <= 0):
            raise DatasetError("all n_samples must be >= 1")
        if np.any(np.diff(self.d_um) <= 0):
            raise DatasetError("distances must be strictly ascending (no duplicates)")

    def __len__(self) -> int:
        return len(self.d_um)

    @property
    def d_m(self) -> np.ndarray:
        """Bin centers in meters."""
        return self.d_um * 1e-6

    @property
    def force_N(self) -> np.ndarray:
        """Forces in newtons."""
        return self.force_udyne * UDYNE

    @property
    def sigma_N(self) -> np.ndarray:
        """Force uncertainties in newtons."""
        return self.sigma_udyne * UDYNE


def _parse_row(fields: list[str], lineno: int, problems: list[str], lines: list[int]):
    if len(fields) != len(_COLUMNS):
        problems.append(f"line {lineno}: expected {len(_COLUMNS)} columns, got {len(fields)}")
        lines.append(lineno)
        return None
    try:
        d = float(fields[0])
        f = float(fields[1])
        s = float(fields[2])
        n = int(fields[3])
        w = float(fields[4])
    except ValueError:
        problems.append(f"line {lineno}: non-numeric field in {fields!r}")
        lines.append(lineno)
        return None
    row_problems = []
    if d <= 0:
        row_problems.append("d_um must be > 0")
    if s <= 0:
        row_problems.append("sigma_udyne must be > 0")
    if n <= 0:
        row_problems.append("n_samples must be >= 1")
    if w < 0:
        row_problems.append("bin_width_um must be >= 0")
    if row_problems:
        problems.append(f"line {lineno}: " + "; ".join(row_problems))
        lines.append(lineno)
        return None
    return (d, f, s, n, w, lineno)


def load_dataset(path, label: str | None = None) -> ForceDataset:
    """Load a force dataset from CSV, validating every row.

    Rows that fail validation are reported together, each with its line
    number, in a single :class:`DatasetError`.
    """
    with open(path, "r", newline="") as fh:
        text = fh.read()
    header_seen = False
    problems: list[str] = []
    bad_lines: list[int] = []
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in next(csv.reader(io.StringIO(line)))]
        if not header_seen:
            if [f.lower() for f in fields] != _COLUMNS:
                raise DatasetError(
                    f"line {lineno}: header must be '{', '.join(_COLUMNS)}', got {line!r}",
                    [lineno],
                )
            header_seen = True
            continue
        parsed = _parse_row(fields, lineno, problems, bad_lines)
        if parsed is not None:
            rows.append(parsed)
    if not header_seen:
        raise DatasetError(f"{path}: no header line found")
    if problems:
        raise DatasetError(f"{path}: " + " | ".join(problems), bad_lines)
    if not rows:
        raise DatasetError(f"{path}: header only, dataset is empty")
    for prev, cur in zip(rows, rows[1:]):
        if cur[0] <= prev[0]:
            raise DatasetError(
                f"line {cur[5]}: d_um={cur[0]} not strictly greater than previous {prev[0]}",
                [cur[5]],
            )
    cols = list(zip(*rows))
    return ForceDataset(
        d_um=np.array(cols[0]),
        force_udyne=np.array(cols[1]),
        sigma_udyne=np.array(cols[2]),
        n_samples=np.array(cols[3]),
        bin_width_um=np.array(cols[4]),
        label=label if label is not None else str(path),
    )


def save_dataset(ds: ForceDataset, path, comments: list[str] | None = None) -> None:
    """Write a dataset back to CSV atomically; numeric content round-trips bit-identically."""
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(",".join(_COLUMNS))
    for i in range(len(ds)):
        lines.append(
            f"{float(ds.d_um[i])!r},{float(ds.force_udyne[i])!r},"
            f"{float(ds.sigma_udyne[i])!r},{int(ds.n_samples[i])},"
            f"{float(ds.bin_width_um[i])!r}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
