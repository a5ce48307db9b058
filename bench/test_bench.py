"""Tests of the benchmark itself: its tracer, its output checks, and its contract.

Run with ``python -m pytest bench -q`` from the repository root.
"""

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import layers
import run
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


# --- tracer ---------------------------------------------------------------------


def _nested_namespace():
    """outer -> inner -> leaf (x2); inner raises and outer catches it."""
    ns = types.SimpleNamespace()

    def leaf():
        return sum(range(200))

    def inner():
        ns.leaf()
        ns.leaf()
        raise ValueError("control flow")

    def outer():
        try:
            ns.inner()
        except ValueError:
            pass
        return ns.leaf()

    ns.leaf, ns.inner, ns.outer = leaf, inner, outer
    return ns


def _traced(clock):
    ns = _nested_namespace()
    t = Tracer(aggregate=["leaf"], clock=clock)
    for name in ("outer", "inner", "leaf"):
        t.patch(ns, name, name)
    return ns, t


def test_self_times_add_up_with_a_raising_child():
    ticks = itertools.count()
    ns, t = _traced(lambda: float(next(ticks)))
    ns.outer()
    t.restore()
    outer, inner, leaf = t.stats["outer"], t.stats["inner"], t.stats["leaf"]
    assert sum(s.self_s for s in t.stats.values()) == outer.total_s
    assert (outer.calls, inner.calls, leaf.calls) == (1, 1, 3)
    assert (outer.raised, inner.raised, leaf.raised) == (0, 1, 0)
    # the raising child keeps its own time; only its children are subtracted
    assert inner.self_s == inner.total_s - 2 * (leaf.total_s / 3)
    assert outer.self_s == outer.total_s - inner.total_s - leaf.total_s / 3


def test_self_times_add_up_to_wall_time():
    ns, t = _traced(time.perf_counter)
    t0 = time.perf_counter()
    ns.outer()
    wall = time.perf_counter() - t0
    t.restore()
    total_self = sum(s.self_s for s in t.stats.values())
    assert total_self == pytest.approx(t.stats["outer"].total_s, abs=1e-9)
    assert 0 < total_self <= wall


def test_leaves_are_summed_per_parent_and_patches_restored():
    ticks = itertools.count()
    ns, t = _traced(lambda: float(next(ticks)))
    original = ns.leaf.__wrapped__
    ns.outer()
    t.restore()
    assert ns.leaf is original
    names = [span[2] for span in t.spans]
    assert sorted(names) == ["inner", "outer"]  # leaf calls are not kept one by one
    ids = {span[2]: span[0] for span in t.spans}
    assert t.leaves[(ids["inner"], "leaf")][0] == 2
    assert t.leaves[(ids["outer"], "leaf")][0] == 1
    assert json.loads(json.dumps(t.to_dict()))["leaves"]


# --- output checks ----------------------------------------------------------------


def test_campaign_check_rejects_a_tampered_report(tmp_path):
    w = workloads.Campaign(4, regions=13, quota=1, out_dir=tmp_path)
    code = w.call(7)
    assert w.check(7, code).failed == 0
    good = json.loads(w.report_path.read_text())

    def failed_after(edit, exit_code=0):
        data = json.loads(json.dumps(good))
        edit(data)
        w.report_path.write_text(json.dumps(data))
        checked = w.check(7, exit_code)
        return checked.failed / checked.items

    assert failed_after(lambda d: None) == 0
    assert failed_after(lambda d: None, exit_code=1) == 1
    assert failed_after(lambda d: d.update(rng_seed=8)) == 1
    assert failed_after(lambda d: d["regions"].pop()) == 1
    for field, value in [("holds", 0), ("violation_count", 1), ("error", "exhausted"), ("oracle_samples", 0)]:
        assert failed_after(lambda d: d["regions"][3].update({field: value})) == pytest.approx(1 / 13)
    w.report_path.write_text("{not json")
    assert w.check(7, 0).failed == 13
    w.close()
    assert not w.report_path.exists()
    assert w.check(7, 0).failed == 13


def test_survey_check_rejects_tampered_tallies():
    w = workloads.Oracle()
    cfg = next(w.inputs(0))
    survey = w.call(cfg)
    assert w.check(cfg, survey).failed == 0
    for field in ("reached_count", "failed_count", "tie_count", "total"):
        bad = dataclasses.replace(survey, **{field: getattr(survey, field) + 1})
        assert w.check(cfg, bad).failed == 1


def test_trace_check_rejects_disagreeing_branches():
    w = workloads.Traces()
    pairs = list(itertools.islice(w.inputs(0), 200))
    results = [w.call(pair) for pair in pairs]
    assert all(w.check(p, r).failed == 0 for p, r in zip(pairs, results))
    strict, branches, digests = next(r for r in results if r[0].converged)
    assert not workloads.check_traces(strict, branches * 2)
    assert not workloads.check_traces(strict, ())
    other = next(r for r in results if r[0].partition_sequence() != strict.partition_sequence())
    assert not workloads.check_traces(strict, other[1][:1])


# --- contract ---------------------------------------------------------------------


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    per_layer = layers.metrics(layers.tracer(), 1.0, run.percentile)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_v, u) in per_layer.items()}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "items_per_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb", "setup_s"
    }


def test_percentile_interpolates():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75.0) == 4.0
    assert run.percentile([7.0], 99.9) == 7.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-k8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
