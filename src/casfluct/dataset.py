"""Binned force-vs-distance measurements and their CSV form.

The on-disk schema is ``d_um, force_udyne, sigma_udyne, n_samples,
bin_width_um`` with a mandatory header and ``#`` comment lines.
``sigma_udyne`` is the standard error of the bin's mean force: the sigma
that chi-squared, the background fit and the amplitude scan divide by.
``n_samples`` and ``bin_width_um`` are validated and carried, but no
computation reads them.  One function holds a bin's rules (d, sigma > 0;
n >= 1; width >= 0): a file is checked row by row, naming ``path:line``,
and a dataset built in code column by column.  It keeps the file's native
micrometer/microdyne values (so a load/save round trip is bit-identical)
and exposes SI views for the physics layers.  Every input CSV of the
package, not only datasets, is read by :func:`read_csv`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .provenance import atomic_write_text
from .units import UDYNE, check_samples

__all__ = ["DatasetError", "ForceDataset", "load_dataset", "save_dataset"]

_COLUMNS = ["d_um", "force_udyne", "sigma_udyne", "n_samples", "bin_width_um"]
_LISTED_ROWS = 10  # bad rows an error message names; DatasetError.lines holds them all


class DatasetError(ValueError):
    """Malformed input CSV or invariant-violating dataset; carries offending line numbers."""

    def __init__(self, message: str, lines: list[int] | None = None):
        super().__init__(message)
        self.lines = lines or []


@dataclass(frozen=True)
class ForceDataset:
    """Sorted binned points (d, F, sigma, n, bin width) in native um/udyne units."""

    d_um: np.ndarray
    force_udyne: np.ndarray
    sigma_udyne: np.ndarray
    n_samples: np.ndarray
    bin_width_um: np.ndarray

    def __post_init__(self) -> None:
        columns = [getattr(self, name) for name in _COLUMNS]
        columns[3] = np.asarray(columns[3], dtype=int)  # n_samples stays an int column
        try:
            checked = check_samples(_COLUMNS, *columns)
        except ValueError as exc:
            raise DatasetError(str(exc)) from None
        for name, column in zip(_COLUMNS, checked):
            object.__setattr__(self, name, column)
        # every column is finite and non-empty, so its minimum breaks a rule if any value does
        problems = _broken_bin_rules(*(checked[i].min() for i in (0, 2, 3, 4)))
        if problems:
            raise DatasetError("; ".join(f"all {rule}" for rule in problems))

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
    values = [float(f) for f in fields]
    if not all(map(math.isfinite, values)):
        bad = next(f for f, v in zip(fields, values) if not math.isfinite(v))
        raise ValueError(f"not a finite number: {bad!r}")
    return values


def read_csv(path, columns: list[str], parse=_floats, exact: bool = True):
    """Header and parsed data rows, keyed by line number, of an input CSV.

    Blank lines and ``#`` comment lines are skipped, and each line is split
    into stripped fields at its commas, or by the ``csv`` module if it holds
    a ``"`` (a quoted field may hold a comma; csv splits any other line alike).
    The first other line is the header: it must equal ``columns``
    (case-insensitively) or, unless ``exact``, begin with them.  Every data
    row must have as many fields as the header and is turned into a value
    by ``parse`` (by default, one finite float per field), which raises
    ValueError on a bad row; ``nan`` and ``inf`` are bad.  Bad rows are
    reported together in one :class:`DatasetError`, whose message names
    the first ten as ``path:line`` and counts the rest.  Last, the first
    column must be strictly ascending; the first row that breaks the
    order is named as ``path:line``.
    """
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:  # spreadsheets may write a BOM
        text = fh.read()
    header = None
    rows, problems = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        split = next(csv.reader([line], skipinitialspace=True)) if '"' in line else line.split(",")
        fields = [*map(str.strip, split)]
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
        listed = list(problems.values())[:_LISTED_ROWS]
        if len(problems) > _LISTED_ROWS:
            listed.append(f"and {len(problems) - _LISTED_ROWS} more")
        raise DatasetError(" | ".join(listed), list(problems))
    if not rows:
        raise DatasetError(f"{path}: no data rows, the table is empty")
    items = list(rows.items())
    for (_, prev), (lineno, cur) in zip(items, items[1:]):
        if cur[0] <= prev[0]:
            raise DatasetError(
                f"{path}:{lineno}: {header[0]} must be strictly ascending, "
                f"got {cur[0]} after {prev[0]}",
                [lineno],
            )
    return header, rows


def read_table(path, columns: list[str], build):
    """``build(*arrays)``, one float array per column, of a numeric CSV whose
    header is exactly ``columns`` and whose first column is strictly ascending;
    a ValueError from ``build`` names ``path``."""
    _, rows = read_csv(path, columns)
    try:
        return build(*(np.array(column) for column in zip(*rows.values())))
    except ValueError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _broken_bin_rules(d, s, n, w) -> list[str]:
    """The rules that a bin's distance, sigma, sample count and width break."""
    kept = {"d_um must be > 0": d > 0, "sigma_udyne must be > 0": s > 0,
            "n_samples must be >= 1": n >= 1, "bin_width_um must be >= 0": w >= 0}
    return [rule for rule, ok in kept.items() if not ok]


def _parse_bin(fields: list[str]) -> tuple:
    d, f, s, w = _floats([fields[i] for i in (0, 1, 2, 4)])
    n = int(fields[3])
    if not (d > 0 and s > 0 and n >= 1 and w >= 0):  # _broken_bin_rules, named only for a bad row
        raise ValueError("; ".join(_broken_bin_rules(d, s, n, w)))
    return d, f, s, n, w


def load_dataset(path) -> ForceDataset:
    """Load a force dataset from CSV, validating every row.

    Rows that fail validation are reported together, each as ``path:line``,
    in a single :class:`DatasetError`.
    """
    _, rows = read_csv(path, _COLUMNS, _parse_bin)
    return ForceDataset(*(np.array(column) for column in zip(*rows.values())))


def save_dataset(ds: ForceDataset, path, comments: list[str] | None = None) -> None:
    """Write a dataset back to CSV atomically; numeric content round-trips bit-identically.

    Each line of each comment, as ``str.splitlines`` splits it, becomes one
    ``# `` line (an empty comment one bare ``# ``).
    """
    lines = [f"# {line}" for c in (comments or []) for line in (c.splitlines() or [""])]
    lines.append(",".join(_COLUMNS))
    for i in range(len(ds)):
        lines.append(
            f"{float(ds.d_um[i])!r},{float(ds.force_udyne[i])!r},"
            f"{float(ds.sigma_udyne[i])!r},{int(ds.n_samples[i])},"
            f"{float(ds.bin_width_um[i])!r}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
