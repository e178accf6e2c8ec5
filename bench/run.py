"""casfluct benchmark: three closed-loop CLI workloads, untraced or traced.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload theory|scan|montecarlo --seed N --seconds S --trace 0|1

One run:

1. times ``SETUP_RUNS`` fresh interpreters that import ``casfluct`` and build
   the CLI parser (``setup_s``, median);
2. writes the workload's seeded inputs under ``bench/work/<workload>/``;
3. runs the defaults probe once (each subcommand at its CLI defaults);
4. runs one untimed warm-up pass, which is also compared with the committed
   reference values when the seed is ``checks.REFERENCE_SEED``;
5. with ``--trace 0``, repeats the pass until ``--seconds`` have gone by and
   reports the median ``wall_s`` and ``cpu_s`` per pass and the process's
   ``peak_rss_mb``; with ``--trace 1``, spends half the time on untraced
   passes and half on traced ones and reports the per-layer metrics of
   ``tracing.LAYER_METRICS`` plus ``trace.overhead_s``.

Before each pass the package's module-level caches (any dict whose name
contains ``CACHE``, and any ``functools`` cache) are emptied and the garbage
collector runs, because every CLI process starts with empty caches and no
garbage; timed passes keep only their pass/fail outcome, not their parsed
outputs, so the process does not grow from pass to pass.  The program runs
in this process through ``casfluct.cli.main``; ``CASIMIR_THREADS`` is left
as found.

Every output is checked (``checks.py``, ``workloads.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts unexpected failures; a
documented defect that still fails the documented way (``Op.known_failure``)
is reported as a known failure and counted in the ``fail_frac`` summary line
only.  Lines before it give each metric with unit, median, quartiles and
sample count, the environment and one digest per output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import checks
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join("bench", "work")  # relative to ROOT: paths enter config hashes
SETUP_RUNS = 3
MIN_PASSES = 3

# end-to-end metrics of an untraced run
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics in the final JSON line of a traced run: every count, the
# times of layers that all three workloads use (an idle layer's time would read
# 0 on every run) and trace.overhead_s; the summary lines above it give them all
TRACE_JSON_TIMES = (
    "lifshitz.sum_s",
    "lifshitz.curve_s",
    "permittivity.eps_s",
    "background.eval_s",
    "corrections.apparent_s",
    "provenance.pool_s",
    "provenance.write_s",
    "provenance.hash_s",
)

SETUP_CODE = """
import contextlib, io, time
t0 = time.perf_counter()
import casfluct, casfluct.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        casfluct.cli.main(["--version"])
    except SystemExit:
        pass
print(repr(time.perf_counter() - t0))
"""


class BenchError(RuntimeError):
    """The benchmark itself cannot run here (no source tree, setup failed, ...)."""


def measure_setup(runs: int) -> list[float]:
    """Seconds to import casfluct and build the CLI parser, in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise BenchError(f"setup interpreter failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def reset_caches(modules) -> None:
    """Empty module-level caches so each pass pays for them as a CLI process would."""
    for module in modules.values():
        for name, value in vars(module).items():
            if isinstance(value, dict) and "CACHE" in name.upper():
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@dataclass
class Result:
    """Outcome of one operation: exit code, parsed output and problems found."""

    op: object
    code: int
    stderr: str
    output: checks.Output | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def known(self) -> bool:
        """A documented defect that still fails the documented way."""
        return self.op.known_failure is not None and self.code == 1

    @property
    def failed(self) -> bool:
        return bool(self.problems) or self.code != 0


def execute(cli, op) -> Result:
    """Run one CLI invocation and read back its output."""
    if os.path.exists(op.output):
        os.remove(op.output)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        return Result(op, -1, err.getvalue(), problems=["crashed:\n" + traceback.format_exc()])
    if code != 0:
        return Result(op, code, err.getvalue())
    try:
        output = checks.read_output(op.output)
    except (OSError, ValueError) as exc:
        return Result(op, code, err.getvalue(), problems=[f"unreadable output: {exc}"])
    return Result(op, code, err.getvalue(), output, checks.check_structure(op, output))


def run_ops(cli, ops, params) -> list[Result]:
    """Run ops in order (closed loop), then apply each op's physics check."""
    results = [execute(cli, op) for op in ops]
    outputs = {r.op.name: r.output for r in results if r.output is not None}
    for r in results:
        if r.output is None or r.problems or r.op.check is None:
            continue
        try:
            r.problems += r.op.check(r.output, outputs, params)
        except (KeyError, IndexError, ValueError) as exc:
            r.problems.append(f"check could not run: {exc!r}")
    return results


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def fmt_stat(name, unit, values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{name:<26} {unit:<9} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}"


def environment() -> str:
    import numpy
    import scipy

    threads = os.environ.get("CASIMIR_THREADS")
    return (
        f"python {platform.python_version()} numpy {numpy.__version__} scipy {scipy.__version__} "
        f"nproc {os.cpu_count()} CASIMIR_THREADS={'<unset>' if threads is None else threads}"
    )


def write_reference(reference: dict, workload: str, warm: list[Result]) -> None:
    reference.update(seed=checks.REFERENCE_SEED, rtol=checks.REFERENCE_RTOL)
    reference.setdefault("workloads", {})[workload] = {
        r.op.name: {"digest": r.output.digest, "values": checks.fingerprint(r.output)}
        for r in warm if r.output is not None
    }
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def compare_with_reference(reference: dict, workload: str, warm: list[Result]) -> list[str]:
    """Add reference mismatches to each result's problems; return digest notes."""
    refs = reference.get("workloads", {}).get(workload, {})
    notes = []
    for r in warm:
        if r.output is None:
            continue
        if r.op.name not in refs:
            r.problems.append("no committed reference values")
            continue
        r.problems += checks.compare_reference(r.output, refs[r.op.name])
        same = r.output.digest == refs[r.op.name]["digest"]
        notes.append(f"{r.op.name}: {'identical to' if same else 'differs from'} reference digest")
    return notes


def trace_report(walls: list[float], twalls: list[float], per_pass: list[dict]) -> dict:
    """Print every per-layer metric; return those of the final JSON line.

    Counts come from the first traced pass and must repeat in every other;
    times are medians over the traced passes.
    """
    print(fmt_stat("wall_s (untraced)", "s", walls))
    print(fmt_stat("wall_s (traced)", "s", twalls))
    metrics = {}
    for name, (unit, moves) in tracing.LAYER_METRICS.items():
        values = [p[name] for p in per_pass]
        if unit == "s":
            print(fmt_stat(name, unit, values) + f"  -> {moves}")
            value = statistics.median(values)
        else:
            value = values[0]
            print(f"{name:<26} {unit:<9} {value:.6g}  -> {moves}")
            if any(v != value for v in values):
                print(f"warning: {name} differs between traced passes: {values}")
        if unit != "s" or name in TRACE_JSON_TIMES:
            metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(twalls) - statistics.median(walls)
    print(f"{'trace.overhead_s':<26} {'s':<9} {overhead:.6g}  (traced minus untraced median wall_s)")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["theory", "scan", "montecarlo"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's outputs as the reference values (reference seed only)")
    args = ap.parse_args(argv)
    if args.write_reference and args.seed != checks.REFERENCE_SEED:
        ap.error(f"--write-reference needs --seed {checks.REFERENCE_SEED}")
    try:
        return bench(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def bench(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "casfluct", "__init__.py")):
        raise BenchError(f"no casfluct source tree at {SRC}; run from a source checkout")
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import inputs  # these two import casfluct
    import workloads

    setup = measure_setup(SETUP_RUNS)
    modules = tracing.package_modules()
    cli = modules["cli"]
    if not modules["casfluct"].__file__.startswith(SRC):
        raise BenchError(f"imported casfluct from {modules['casfluct'].__file__}, not from {SRC}")

    workdir = os.path.join(WORK, args.workload)
    params = inputs.generate(args.workload, args.seed, workdir)
    ops, probes = workloads.build(args.workload, params, workdir)
    reference = checks.load_reference()

    t_run = time.perf_counter()
    all_results = run_ops(cli, probes, params)
    reset_caches(modules)
    warm = run_ops(cli, ops, params)
    all_results += warm
    if args.write_reference:
        write_reference(reference, args.workload, warm)
        ref_notes = []
    else:
        ref_notes = compare_with_reference(reference, args.workload, warm) if args.seed == checks.REFERENCE_SEED else []

    def timed_passes(seconds, tracer_factory=None):
        """Passes until ``seconds`` have gone by; traced passes keep only their metrics."""
        walls, cpus, layers = [], [], []
        tracer = None
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(walls) < MIN_PASSES:
            reset_caches(modules)
            gc.collect()
            tracer = tracer_factory() if tracer_factory else None
            with tracing.instrument(tracer) if tracer else contextlib.nullcontext():
                t0, c0 = time.perf_counter(), time.process_time()
                results = run_ops(cli, ops, params)
                t1, c1 = time.perf_counter(), time.process_time()
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            for r in results:
                r.output = None
            all_results.extend(results)
            if tracer:
                layers.append(tracing.layer_metrics(tracer.spans))
        return walls, cpus, layers, tracer

    if args.trace:
        walls, cpus, _, _ = timed_passes(args.seconds / 2)
        twalls, _, per_pass, last = timed_passes(args.seconds / 2, tracing.Tracer)
    else:
        walls, cpus, _, _ = timed_passes(args.seconds)
    run_s = time.perf_counter() - t_run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [r for r in all_results if r.failed]
    known = [r for r in failures if r.known and not r.problems]
    unexpected = [r for r in failures if r not in known]
    attempted = len(all_results)

    print(f"casfluct benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(walls) + (len(twalls) if args.trace else 0)} run_s={run_s:.3f}")
    print(f"env: {environment()}")
    if args.trace:
        metrics = trace_report(walls, twalls, per_pass)
        spans_path = os.path.join(workdir, "spans.json")
        with open(spans_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["id", "parent", "name", "start", "end", "info"],
                       "spans": [s.as_list() for s in last.spans]}, fh)
        print(f"spans of the last traced pass: {spans_path}")
    else:
        values = {"wall_s": walls, "cpu_s": cpus, "setup_s": setup, "peak_rss_mb": [peak_rss_mb]}
        metrics = {}
        for name, unit in END_TO_END_UNITS.items():
            print(fmt_stat(name, unit, values[name]))
            metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
    print(f"{'fail_frac':<26} {'1':<9} {len(failures) / attempted:.6g}  "
          f"({len(failures)} failed of {attempted} attempted; {len(known)} known, {len(unexpected)} unexpected)")
    for r in known:
        print(f"known failure: {r.op.name}: {' '.join(r.op.argv)} {r.op.known_failure}")
    for r in warm:
        print(f"digest {r.op.name}: {r.output.digest if r.output else '-'}")
    for note in ref_notes:
        print(f"reference {note}")
    for r in unexpected[:10]:
        detail = "; ".join(r.problems) or r.stderr.strip() or f"exit {r.code}"
        print(f"FAILED {r.op.name} (exit {r.code}): {detail}", file=sys.stderr)

    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(unexpected), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
