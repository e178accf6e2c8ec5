"""Layer tracing for the casfluct benchmark, applied from outside the package.

``instrument(tracer)`` replaces the public functions and methods of each
layer module with thin wrappers that open a span per call, and puts every
original back when the block exits.  A function is replaced under every
name that binds it in any ``casfluct`` module, ``from .x import y`` copies
included: a missed copy would silently read as zero calls.

A span records its name, start, end, parent and an optional ``info`` value
taken from the call (points evaluated, rows written, ...).  Spans live in
memory until the caller writes them out.  Work that ``parallel_map`` hands
to its worker threads is parented to the pool span that dispatched it.

``layer_metrics`` turns the spans of one pass into the per-layer numbers
named in ``LAYER_METRICS``.  A layer's self time is its span's duration
minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "casfluct"
LAYERS = (
    "cli",
    "provenance",
    "dataset",
    "permittivity",
    "lifshitz",
    "background",
    "corrections",
    "analysis",
    "oracle",
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "info")

    def __init__(self, id, parent, name, start, end=0.0, info=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end, self.info]


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), stack[-1] if stack else 0, name, time.perf_counter())
        stack.append(span.id)
        return span

    def end(self, span: Span, info=None) -> None:
        span.end = time.perf_counter()
        span.info = info
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def adopt(self, parent_id: int):
        """Parent this thread's spans to ``parent_id`` (a span of another thread)."""
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent_id]
        try:
            yield
        finally:
            self._local.stack = saved


# --------------------------------------------------------------------------
# what gets wrapped


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _sum_info(args, kwargs, result):
    """True for a zero-temperature sum (continuous frequency integral)."""
    settings = _arg(args, kwargs, 3, "settings")
    return _arg(args, kwargs, 2, "T") == 0.0 or bool(getattr(settings, "zero_temperature_mode", False))


def _written_rows(args, kwargs, result):
    """(bytes, data rows) of a text output; CSV rows exclude comments and header."""
    text = _arg(args, kwargs, 1, "text")
    rows = 0
    if text.startswith("#"):
        rows = sum(1 for line in text.splitlines() if line and not line.startswith("#")) - 1
    return (len(text.encode()), rows)


def _verify_info(args, kwargs, r):
    return (r.trials, r.n_mean_pass, r.n_scatter_pass, r.n_scatter_applicable)


# (module, function, span name, info taken from (args, kwargs, result))
FUNCTIONS = (
    ("provenance", "config_hash", "provenance.hash", None),
    ("provenance", "file_hash", "provenance.hash", None),
    ("provenance", "atomic_write_text", "provenance.write", _written_rows),
    ("dataset", "load_dataset", "dataset.load", lambda a, k, r: len(r)),
    ("permittivity", "eps_imag_axis", "permittivity.eps", None),
    ("permittivity", "kk_transform", "permittivity.kk", None),
    ("permittivity", "load_optical_table", "permittivity.load_table", lambda a, k, r: len(r.omega_ev)),
    ("permittivity", "load_eps_table", "permittivity.load_table", lambda a, k, r: len(r.xi_ev)),
    ("lifshitz", "plate_energy", "lifshitz.sum", _sum_info),
    ("lifshitz", "plate_pressure", "lifshitz.sum", _sum_info),
    ("lifshitz", "derivative", "lifshitz.fd", lambda a, k, r: bool(r.flagged)),
    ("lifshitz", "force_curve", "lifshitz.curve", lambda a, k, r: len(r.d_m)),
    ("background", "fit_background", "background.fit", None),
    ("corrections", "apparent_force", "corrections.apparent", None),
    ("analysis", "chi_squared", "analysis.chi2", lambda a, k, r: len(_arg(a, k, 0, "data"))),
    ("analysis", "scan_delta", "analysis.scan", None),
    ("oracle", "sample_process", "oracle.synth", lambda a, k, r: len(r)),
    ("oracle", "time_averaged_force", "oracle.avg", lambda a, k, r: r.n_samples),
    ("oracle", "verify_second_order", "oracle.verify", _verify_info),
)

# (module, class, methods, span name, info); args[0] is self
METHODS = (
    ("lifshitz", "TabulatedForceCurve", ("__call__", "gradient", "curvature"), "lifshitz.spline",
     lambda a, k, r: int(np.size(a[1]))),
    ("background", "ElectrostaticBackground", ("force", "__call__", "gradient", "curvature"),
     "background.eval", None),
    ("corrections", "ConstantProfile", ("__call__",), "corrections.profile", None),
    ("corrections", "SqrtLawProfile", ("__call__",), "corrections.profile", None),
    ("corrections", "TableProfile", ("__call__",), "corrections.profile", None),
)


def cli_span_name(argv) -> str:
    """``cli.<subcommand>``; ``correct --emit fig1`` is its own span, ``cli.fig1``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        return "cli.main"
    emit = argv[argv.index("--emit") + 1] if "--emit" in argv[:-1] else None
    if argv[0] == "correct" and emit == "fig1":
        return "cli.fig1"
    return "cli." + argv[0].replace("-", "_")


def _traced(tracer: Tracer, fn, name: str, info):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        value = None
        try:
            result = fn(*args, **kwargs)
            if info is not None:
                value = info(args, kwargs, result)
            return result
        finally:
            tracer.end(span, value)

    return wrapper


def _traced_main(tracer: Tracer, main):
    @functools.wraps(main)
    def wrapper(argv=None, *args, **kwargs):
        span = tracer.begin(cli_span_name(argv))
        try:
            return main(argv, *args, **kwargs)
        finally:
            tracer.end(span)

    return wrapper


def _traced_pool(tracer: Tracer, parallel_map):
    @functools.wraps(parallel_map)
    def wrapper(fn, items):
        items = list(items)
        span = tracer.begin("provenance.pool")

        def adopted(x):
            with tracer.adopt(span.id):
                return fn(x)

        try:
            return parallel_map(adopted, items)
        finally:
            tracer.end(span, len(items))

    return wrapper


def package_modules() -> dict[str, object]:
    """Every layer module, plus the package itself (it re-exports names)."""
    mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
    mods[PACKAGE] = importlib.import_module(PACKAGE)
    return mods


def _replace_everywhere(mods, original, wrapper, patches) -> None:
    for module in mods.values():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                patches.append((module, attr, original))


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced binding for the duration of the block, then restore them all."""
    mods = package_modules()
    patches: list[tuple[object, str, object]] = []
    try:
        main = mods["cli"].main
        _replace_everywhere(mods, main, _traced_main(tracer, main), patches)
        pool = mods["provenance"].parallel_map
        _replace_everywhere(mods, pool, _traced_pool(tracer, pool), patches)
        for module, attr, name, info in FUNCTIONS:
            original = getattr(mods[module], attr)
            _replace_everywhere(mods, original, _traced(tracer, original, name, info), patches)
        for module, cls_name, methods, name, info in METHODS:
            cls = getattr(mods[module], cls_name)
            for method in methods:
                original = cls.__dict__[method]
                setattr(cls, method, _traced(tracer, original, name, info))
                patches.append((cls, method, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# from spans to per-layer numbers


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's (clipped) intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = s.duration - covered
    return out


# name -> (unit, end-to-end metric it should move, and where)
LAYER_METRICS = {
    "cli.force_s": ("s", "wall_s on theory"),
    "cli.correct_s": ("s", "wall_s on theory"),
    "cli.fig1_s": ("s", "wall_s on theory"),
    "cli.kk_s": ("s", "wall_s on theory"),
    "cli.fit_beta_s": ("s", "wall_s on scan"),
    "cli.chi2_s": ("s", "wall_s on scan"),
    "cli.scan_delta_s": ("s", "wall_s on scan"),
    "cli.simulate_s": ("s", "wall_s on montecarlo"),
    "lifshitz.sums": ("count", "wall_s/cpu_s on theory; flat on scan, montecarlo"),
    "lifshitz.sums_zero_t": ("count", "wall_s/cpu_s on theory"),
    "lifshitz.sums_per_row": ("sums/row", "wall_s/cpu_s on theory"),
    "lifshitz.sum_s": ("s", "wall_s/cpu_s on theory (self time)"),
    "lifshitz.terms_per_sum": ("eps/sum", "wall_s/cpu_s on theory"),
    "lifshitz.fd_calls": ("count", "wall_s/cpu_s on theory"),
    "lifshitz.fd_s": ("s", "wall_s/cpu_s on theory"),
    "lifshitz.fd_flagged": ("count", "wall_s/cpu_s on theory"),
    "lifshitz.curve_points": ("count", "wall_s/cpu_s on theory"),
    "lifshitz.curve_s": ("s", "wall_s/cpu_s on theory"),
    "lifshitz.spline_evals": ("count", "wall_s on scan, montecarlo"),
    "lifshitz.spline_points": ("count", "wall_s on scan, montecarlo"),
    "lifshitz.spline_s": ("s", "wall_s on scan, montecarlo"),
    "permittivity.eps_calls": ("count", "wall_s on theory"),
    "permittivity.eps_s": ("s", "wall_s on theory"),
    "permittivity.kk_calls": ("count", "wall_s on theory"),
    "permittivity.kk_s": ("s", "wall_s on theory"),
    "permittivity.table_rows": ("count", "wall_s on theory"),
    "background.evals": ("count", "wall_s on scan"),
    "background.eval_s": ("s", "wall_s on scan"),
    "background.fits": ("count", "wall_s on scan"),
    "background.fit_s": ("s", "wall_s on scan"),
    "corrections.apparent_calls": ("count", "wall_s on scan"),
    "corrections.apparent_s": ("s", "wall_s on scan"),
    "corrections.profile_calls": ("count", "wall_s on scan"),
    "analysis.chi2_calls": ("count", "wall_s on scan"),
    "analysis.theory_evals": ("count", "wall_s on scan"),
    "analysis.chi2_s": ("s", "wall_s on scan"),
    "analysis.scan_s": ("s", "wall_s on scan"),
    "dataset.load_s": ("s", "wall_s on scan"),
    "dataset.rows_loaded": ("count", "wall_s on scan"),
    "oracle.samples": ("count", "wall_s, peak_rss_mb on montecarlo"),
    "oracle.synth_s": ("s", "wall_s, peak_rss_mb on montecarlo"),
    "oracle.force_samples": ("count", "wall_s, peak_rss_mb on montecarlo"),
    "oracle.avg_s": ("s", "wall_s, peak_rss_mb on montecarlo"),
    "oracle.trials": ("count", "wall_s, peak_rss_mb on montecarlo"),
    "oracle.mean_pass_ratio": ("1", "wall_s, peak_rss_mb on montecarlo"),
    "oracle.scatter_pass_ratio": ("1", "wall_s, peak_rss_mb on montecarlo"),
    "provenance.pool_items": ("count", "cpu_s on theory"),
    "provenance.pool_s": ("s", "cpu_s on theory"),
    "provenance.write_s": ("s", "cpu_s on theory"),
    "provenance.bytes_written": ("bytes", "cpu_s on theory"),
    "provenance.hash_s": ("s", "cpu_s on theory"),
    "trace.spans": ("count", "none (tracer cost)"),
}

# cli span -> metric; fig1 and correct are separate spans
_CLI_METRICS = {
    "cli.force": "cli.force_s",
    "cli.correct": "cli.correct_s",
    "cli.fig1": "cli.fig1_s",
    "cli.kk": "cli.kk_s",
    "cli.fit_beta": "cli.fit_beta_s",
    "cli.chi2": "cli.chi2_s",
    "cli.scan_delta": "cli.scan_delta_s",
    "cli.simulate": "cli.simulate_s",
}
# commands whose output rows are Lifshitz force rows
_ROW_COMMANDS = ("cli.force", "cli.correct", "cli.fig1")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one pass, keyed as in ``LAYER_METRICS``."""
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)

    def top(s: Span) -> Span:
        while s.parent in by_id:
            s = by_id[s.parent]
        return s

    def count(name):
        return len(by_name[name])

    def busy(name):
        """Summed duration of the spans not nested in a span of the same name."""
        total = 0.0
        for s in by_name[name]:
            p = by_id.get(s.parent)
            while p is not None and p.name != name:
                p = by_id.get(p.parent)
            if p is None:
                total += s.duration
        return total

    def info_sum(name, index=None):
        return sum((s.info if index is None else s.info[index]) for s in by_name[name] if s.info is not None)

    m = {metric: sum(s.duration for s in by_name[span]) for span, metric in _CLI_METRICS.items()}

    sums = by_name["lifshitz.sum"]
    finite_t = {s.id for s in sums if not s.info}
    row_sums = sum(1 for s in sums if top(s).name in _ROW_COMMANDS)
    rows = sum(s.info[1] for s in by_name["provenance.write"] if s.info and top(s).name in _ROW_COMMANDS)
    m.update({
        "lifshitz.sums": len(sums),
        "lifshitz.sums_zero_t": len(sums) - len(finite_t),
        "lifshitz.sums_per_row": _ratio(row_sums, rows),
        "lifshitz.sum_s": sum(selfs[s.id] for s in sums),
        "lifshitz.terms_per_sum": _ratio(
            sum(1 for s in by_name["permittivity.eps"] if s.parent in finite_t), len(finite_t)
        ),
        "lifshitz.fd_calls": count("lifshitz.fd"),
        "lifshitz.fd_s": busy("lifshitz.fd"),
        "lifshitz.fd_flagged": sum(1 for s in by_name["lifshitz.fd"] if s.info),
        "lifshitz.curve_points": info_sum("lifshitz.curve"),
        "lifshitz.curve_s": busy("lifshitz.curve"),
        "lifshitz.spline_evals": count("lifshitz.spline"),
        "lifshitz.spline_points": info_sum("lifshitz.spline"),
        "lifshitz.spline_s": busy("lifshitz.spline"),
        "permittivity.eps_calls": count("permittivity.eps"),
        "permittivity.eps_s": busy("permittivity.eps"),
        "permittivity.kk_calls": count("permittivity.kk"),
        "permittivity.kk_s": busy("permittivity.kk"),
        "permittivity.table_rows": info_sum("permittivity.load_table"),
        "background.evals": count("background.eval"),
        "background.eval_s": busy("background.eval"),
        "background.fits": count("background.fit"),
        "background.fit_s": busy("background.fit"),
        "corrections.apparent_calls": count("corrections.apparent"),
        "corrections.apparent_s": busy("corrections.apparent"),
        "corrections.profile_calls": count("corrections.profile"),
        "analysis.chi2_calls": count("analysis.chi2"),
        "analysis.theory_evals": info_sum("analysis.chi2"),
        "analysis.chi2_s": busy("analysis.chi2"),
        "analysis.scan_s": busy("analysis.scan"),
        "dataset.load_s": busy("dataset.load"),
        "dataset.rows_loaded": info_sum("dataset.load"),
        "oracle.samples": info_sum("oracle.synth"),
        "oracle.synth_s": busy("oracle.synth"),
        "oracle.force_samples": info_sum("oracle.avg"),
        "oracle.avg_s": busy("oracle.avg"),
        "oracle.trials": info_sum("oracle.verify", 0),
        "oracle.mean_pass_ratio": _ratio(info_sum("oracle.verify", 1), info_sum("oracle.verify", 0)),
        "oracle.scatter_pass_ratio": _ratio(info_sum("oracle.verify", 2), info_sum("oracle.verify", 3)),
        "provenance.pool_items": info_sum("provenance.pool"),
        "provenance.pool_s": busy("provenance.pool"),
        "provenance.write_s": busy("provenance.write"),
        "provenance.bytes_written": info_sum("provenance.write", 0),
        "provenance.hash_s": busy("provenance.hash"),
        "trace.spans": len(spans),
    })
    return m
