"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from casfluct import cli  # noqa: E402


def span(id, parent, start, end, name="x"):
    return tracing.Span(id, parent, name, start, end)


def test_self_time_subtracts_union_of_children():
    spans = [
        span(1, 0, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 3.0, 5.0),  # overlaps 2 (another thread): union 1..5
        span(4, 1, 8.0, 12.0),  # runs past its parent: clipped to 8..10
        span(5, 2, 1.5, 2.0),  # grandchild: counts against 2, not 1
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[5] == pytest.approx(0.5)


def test_union_length():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (2, 3)]) == 2.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0


def test_cli_span_names():
    assert tracing.cli_span_name(["correct", "--emit", "fig1", "-o", "x"]) == "cli.fig1"
    assert tracing.cli_span_name(["correct", "-o", "x"]) == "cli.correct"
    assert tracing.cli_span_name(["scan-delta", "--data", "d"]) == "cli.scan_delta"


def _bindings():
    mods = tracing.package_modules()
    snap = {(name, attr): value for name, m in mods.items() for attr, value in vars(m).items()}
    for module, cls_name, methods, _, _ in tracing.METHODS:
        cls = getattr(mods[module], cls_name)
        snap.update({(cls_name, m): cls.__dict__[m] for m in methods})
    return snap


def test_every_binding_wrapped_then_restored(tmp_path):
    before = _bindings()
    originals = [getattr(tracing.package_modules()[m], a) for m, a, _, _ in tracing.FUNCTIONS]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        during = _bindings()
        leftover = [key for key, value in during.items() if any(value is o for o in originals)]
        assert leftover == []
        assert cli.main(["force", "--points", "4", "-o", str(tmp_path / "f.csv")]) == 0
    assert tracer.spans
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_pool_workers_parent_to_pool_span():
    tracer = tracing.Tracer()
    pool = tracing._traced_pool(tracer, _threaded_map)
    leaf = tracing._traced(tracer, lambda x: x, "leaf", None)
    assert pool(leaf, [1, 2, 3]) == [1, 2, 3]
    (pool_span,) = [s for s in tracer.spans if s.name == "provenance.pool"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 3 and all(s.parent == pool_span.id for s in leaves)


def _threaded_map(fn, items):
    out = [None] * len(items)

    def work(i):
        out[i] = fn(items[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(items))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    return out


@pytest.mark.parametrize("emit, sums, per_row", [((), 300, 12.0), (("--emit", "fig1"), 375, 15.0)])
def test_counts_match_roadmap_baseline(tmp_path, emit, sums, per_row):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert cli.main(["correct", *emit, "--points", "25", "-o", str(tmp_path / "c.csv")]) == 0
    m = tracing.layer_metrics(tracer.spans)
    assert m["lifshitz.sums"] == sums
    assert m["lifshitz.sums_per_row"] == per_row
    assert m["lifshitz.fd_calls"] == 50


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_byte_identical_per_seed(tmp_path, workload):
    a = inputs.generate(workload, 7, str(tmp_path / "a"))
    b = inputs.generate(workload, 7, str(tmp_path / "b"))
    c = inputs.generate(workload, 8, str(tmp_path / "c"))
    files = sorted(os.listdir(tmp_path / "a"))
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    strip = lambda p: {k: v for k, v in p.items() if not isinstance(v, str)}
    assert strip(a) == strip(b)
    assert strip(a) != strip(c)


def test_checker_rejects_perturbed_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    p = inputs.generate("theory", 3, "w")
    ops, _ = workloads.build("theory", p, "w")
    kk = ops[0]
    (result,) = run.run_ops(cli, [kk], p)
    assert not result.failed, result.problems
    ref = {"values": checks.fingerprint(result.output)}
    assert checks.compare_reference(checks.read_output(kk.output), ref) == []

    text = open(kk.output).read()
    lines = text.splitlines()
    first = len([ln for ln in lines if ln.startswith("#")]) + 1  # first data row
    xi, eps = lines[first].split(",")
    lines[first] = f"{xi},{float(eps) * (1 + 1e-5)!r}"
    with open(kk.output, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert checks.compare_reference(checks.read_output(kk.output), ref)

    with open(kk.output, "w") as fh:
        fh.write("\n".join(ln for ln in text.splitlines() if "config_hash" not in ln) + "\n")
    assert checks.check_structure(kk, checks.read_output(kk.output))

    wrong = checks.read_output(kk.output)
    wrong.table[5, 1] *= 1.01
    assert kk.check(wrong, {}, p)


def test_reset_caches_empties_lifshitz_nodes():
    from casfluct import lifshitz

    lifshitz._lag_nodes(32)
    assert lifshitz._LAG_CACHE
    run.reset_caches(tracing.package_modules())
    assert not lifshitz._LAG_CACHE


def test_benchmark_json_lists_what_a_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    traced = {
        name: unit for name, (unit, _) in tracing.LAYER_METRICS.items() if unit != "s" or name in run.TRACE_JSON_TIMES
    }
    traced["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced
