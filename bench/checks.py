"""Output checks for the casfluct benchmark.

Every operation's output is read back and checked for its provenance
header, its columns or keys, its row count and finite numbers.  The
workload's own physics checks (in ``workloads.py``) then run on the parsed
output.  For the reference seed the numbers are also compared, within
``REFERENCE_RTOL``, with the committed values in ``reference.json``, and
each output's digest is compared with the committed one.  A changed digest
is reported but is not a failure: it shows that a change altered output
bytes, which a refactor should not and a physics change may.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REFERENCE_SEED = 1
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def input_hash(path: str) -> str:
    """The program's own input-hash format: 12 hex digits of sha256."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]


@dataclass
class Output:
    """One parsed output file."""

    path: str
    digest: str
    meta: dict
    columns: list[str] = field(default_factory=list)
    table: np.ndarray | None = None  # CSV data rows x columns
    payload: dict | None = None  # JSON body

    def column(self, name: str) -> np.ndarray:
        return self.table[:, self.columns.index(name)]


def read_output(path: str) -> Output:
    """Parse a CSV (``# key: value`` header lines, column row, numbers) or JSON output."""
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode()
    if path.endswith(".json"):
        payload = json.loads(text)
        return Output(path, digest(raw), dict(payload.get("_meta", {})), payload=payload)
    meta, columns, rows = {}, [], []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(": ")  # keys may hold ':' (input_hash:data)
            meta[key.strip()] = value.strip()
        elif not columns:
            columns = line.split(",")
        elif line:
            rows.append([float(v) for v in line.split(",")])
    table = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    return Output(path, digest(raw), meta, columns, table)


def check_structure(op, out: Output) -> list[str]:
    """Provenance header, columns or keys, row count and finite values."""
    problems = []
    for key in ("tool_version", "config_hash"):
        if not out.meta.get(key):
            problems.append(f"provenance header lacks {key}")
    for name, path in op.inputs:
        got = out.meta.get(f"input_hash:{name}")
        if got != input_hash(path):
            problems.append(f"input_hash:{name} is {got!r}, expected {input_hash(path)!r}")
    if op.columns:
        if out.columns != list(op.columns):
            problems.append(f"columns {out.columns} != {list(op.columns)}")
        elif op.rows is not None and len(out.table) != op.rows:
            problems.append(f"{len(out.table)} rows, expected {op.rows}")
        elif not np.all(np.isfinite(out.table)):
            problems.append("non-finite values in table")
    else:
        body = out.payload or {}
        missing = [k for k in op.keys if k not in body]
        if missing:
            problems.append(f"JSON lacks keys {missing}")
    return problems


def fingerprint(out: Output) -> dict[str, float]:
    """A few numbers per column or field, compared with the reference values."""
    values: dict[str, float] = {}
    if out.table is not None:
        for j, name in enumerate(out.columns):
            col = out.table[:, j]
            values[f"{name}[0]"] = float(col[0])
            values[f"{name}[mid]"] = float(col[len(col) // 2])
            values[f"{name}[-1]"] = float(col[-1])
            values[f"{name}.mean"] = float(np.mean(col))
        return values
    for key, value in sorted(out.payload.items()):
        if isinstance(value, bool):
            values[key] = float(value)
        elif isinstance(value, (int, float)):
            values[key] = float(value)
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            for sub in sorted(value[0]):
                nums = [v[sub] for v in value if isinstance(v.get(sub), (int, float))]
                if nums:
                    values[f"{key}[].{sub}.mean"] = float(np.mean(np.asarray(nums, dtype=float)))
    return values


def _close(got: float, want: float) -> bool:
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return abs(got - want) <= REFERENCE_RTOL * max(abs(got), abs(want)) + REFERENCE_ATOL


def compare_reference(out: Output, ref: dict) -> list[str]:
    """Differences between an output's fingerprint and its reference values."""
    got = fingerprint(out)
    want = ref["values"]
    problems = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            problems.append(f"{key}: present in only one of output and reference")
        elif not _close(got[key], want[key]):
            problems.append(f"{key} = {got[key]!r}, reference {want[key]!r} (rtol {REFERENCE_RTOL:g})")
    return problems


def load_reference() -> dict:
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
