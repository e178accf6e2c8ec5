"""Binned force-vs-distance measurements and their CSV form.

The on-disk schema is ``d_um, force_udyne, sigma_udyne, n_samples,
bin_width_um`` with a mandatory header and ``#`` comment lines.  The
dataset object keeps the file's native micrometer/microdyne values (so a
load/save round trip is bit-identical) and exposes SI views for the
physics layers.  Every input CSV of the package, not only datasets, is
read by :func:`read_csv`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .provenance import atomic_write_text
from .units import UDYNE

__all__ = ["DatasetError", "ForceDataset", "load_dataset", "save_dataset"]

_COLUMNS = ["d_um", "force_udyne", "sigma_udyne", "n_samples", "bin_width_um"]


class DatasetError(ValueError):
    """Malformed input CSV or invariant-violating dataset; carries offending line numbers."""

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


def _floats(fields: list[str]) -> list[float]:
    return [float(f) for f in fields]


def read_csv(path, columns: list[str], parse=_floats, exact: bool = True):
    """Header and parsed data rows, keyed by line number, of an input CSV.

    Blank lines and ``#`` comment lines are skipped, and each line is split
    into stripped fields by the ``csv`` module, so a quoted field may hold a
    comma.  The first other line is the header: it must equal ``columns``
    (case-insensitively) or, unless ``exact``, begin with them.  Every data
    row must have as many fields as the header and is turned into a value
    by ``parse``, which raises ValueError on a bad row.  Bad rows are
    reported together in one :class:`DatasetError` naming ``path:line``.
    """
    with open(path, "r", newline="") as fh:
        text = fh.read()
    header = None
    rows, problems = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in next(csv.reader([line], skipinitialspace=True))]
        if header is None:
            names = [f.lower() for f in fields]
            if names[: len(columns)] != columns or (exact and len(names) != len(columns)):
                must = "be" if exact else "begin with"
                raise DatasetError(
                    f"{path}:{lineno}: header must {must} '{', '.join(columns)}', got {line!r}",
                    [lineno],
                )
            header = fields
            continue
        try:
            if len(fields) != len(header):
                raise ValueError(f"expected {len(header)} columns, got {len(fields)}")
            rows[lineno] = parse(fields)
        except ValueError as exc:
            problems[lineno] = f"{path}:{lineno}: {exc}"
    if problems:
        raise DatasetError(" | ".join(problems.values()), list(problems))
    if not rows:
        raise DatasetError(f"{path}: no data rows, the table is empty")
    return header, rows


def require_ascending(path, header: list[str], rows: dict) -> None:
    """Raise a :class:`DatasetError` naming ``path:line`` at the first of the
    ``read_csv`` rows whose first column does not exceed the row before."""
    items = list(rows.items())
    for (_, prev), (lineno, cur) in zip(items, items[1:]):
        if cur[0] <= prev[0]:
            raise DatasetError(
                f"{path}:{lineno}: {header[0]} must be strictly ascending, "
                f"got {cur[0]} after {prev[0]}",
                [lineno],
            )


def read_table(path, columns: list[str], build):
    """``build(*arrays)``, one float array per column, of a numeric CSV whose
    header is exactly ``columns`` and whose first column is strictly ascending;
    a ValueError from ``build`` names ``path``."""
    header, rows = read_csv(path, columns)
    require_ascending(path, header, rows)
    try:
        return build(*(np.array(column) for column in zip(*rows.values())))
    except ValueError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _parse_bin(fields: list[str]) -> tuple:
    d, f, s, w = (float(fields[i]) for i in (0, 1, 2, 4))
    n = int(fields[3])
    problems = []
    if d <= 0:
        problems.append("d_um must be > 0")
    if s <= 0:
        problems.append("sigma_udyne must be > 0")
    if n <= 0:
        problems.append("n_samples must be >= 1")
    if w < 0:
        problems.append("bin_width_um must be >= 0")
    if problems:
        raise ValueError("; ".join(problems))
    return d, f, s, n, w


def load_dataset(path) -> ForceDataset:
    """Load a force dataset from CSV, validating every row; its label is ``str(path)``.

    Rows that fail validation are reported together, each as ``path:line``,
    in a single :class:`DatasetError`.
    """
    header, rows = read_csv(path, _COLUMNS, _parse_bin)
    require_ascending(path, header, rows)
    cols = list(zip(*rows.values()))
    return ForceDataset(
        d_um=np.array(cols[0]),
        force_udyne=np.array(cols[1]),
        sigma_udyne=np.array(cols[2]),
        n_samples=np.array(cols[3]),
        bin_width_um=np.array(cols[4]),
        label=str(path),
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
