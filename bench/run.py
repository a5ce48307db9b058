"""Benchmark of the exact k-means richness verifier.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):
campaign-k4, campaign-k6, oracle-k8, lloyd-traces.

``--trace 0`` times calls into the program for S seconds, after a fixed
first stretch of work that every run does, and prints the end-to-end
metrics:

- ``items_per_s``: decided items per second of time spent in the program;
- ``item_p50_ms``, ``item_tail_ms``: per-item latency, at the median and at
  the workload's fixed tail percentile (campaigns: the mean per sample of
  one ``verify`` call);
- ``peak_rss_mb``: peak resident memory once the fixed stretch is done;
- ``setup_s``: median time to import ``kmeans_richness.cli`` in a fresh
  interpreter.

Times are scaled to a reference host speed (see ``reference_seconds``);
the unscaled figures are printed too.  ``--trace 1`` runs the fixed stretch
twice, untraced and then traced, and prints the per-layer metrics of
``layers.py``; its counts repeat exactly for a given seed.  Either way the
outputs of the fixed stretch are checked and hashed, so that two commits can
be compared byte for byte, and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Results
and spans are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Per-call latencies kept; later calls still count towards throughput.
LATENCY_SLOTS = 1 << 18

SETUP_RUNS = 15

# The host's speed drifts by up to 2x over seconds, and CPU time drifts with
# wall time.  A fixed reference loop runs between chunks of calls, and each
# chunk's times are scaled to a host on which that loop takes REF_NOMINAL_S.
# Small-integer arithmetic tracks the drift of every workload here (log-log
# slope 0.94-1.10); a loop of Fraction sums slowed more than the oracle did.
REF_NOMINAL_S = 2e-3
CHUNK_S = 0.2

# Run in a fresh interpreter: time the import, then the reference loop, whose
# time scales the import to reference host speed.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import kmeans_richness.cli\n"
    "took = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from run import reference_seconds\n"
    "reference_seconds()\n"
    "print(repr(took), repr(reference_seconds()))\n"
)


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def reference_seconds() -> float:
    """Wall time of a fixed loop of integer arithmetic that no program change touches."""
    t0 = time.perf_counter()
    x = 1
    for _ in range(20_000):
        x = (x * 1103 + 12345) % 65521
    return time.perf_counter() - t0


class Meter:
    """Call times, scaled to reference host speed chunk by chunk."""

    def __init__(self, slots: int) -> None:
        self.busy_s = 0.0  # scaled
        self.raw_s = 0.0  # as measured
        self.latencies = array("d", [0.0]) * slots  # allocated up front: RSS does not grow with speed
        self.kept = 0
        self._pending: list[tuple[float, int]] = []
        self._pending_s = 0.0
        self._ref = reference_seconds()

    def add(self, elapsed: float, items: int) -> None:
        self._pending.append((elapsed, items))
        self._pending_s += elapsed
        if self._pending_s >= CHUNK_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        ref = reference_seconds()
        scale = 2 * REF_NOMINAL_S / (self._ref + ref)
        self._ref = ref
        for elapsed, items in self._pending:
            self.raw_s += elapsed
            self.busy_s += elapsed * scale
            if self.kept < len(self.latencies):
                self.latencies[self.kept] = elapsed * scale / items
                self.kept += 1
        self._pending.clear()
        self._pending_s = 0.0

    def values(self) -> array:
        return self.latencies[: self.kept]


def setup_seconds() -> tuple[float, float]:
    """Median time to import ``kmeans_richness.cli`` in fresh interpreters,
    scaled to reference host speed and as measured.

    One import runs first untimed, so byte-code compilation is not counted.
    """

    def probe() -> tuple[float, float]:
        done = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        took, ref = (float(x) for x in done.stdout.split())
        return took, took * REF_NOMINAL_S / ref

    probe()
    raw, scaled = zip(*(probe() for _ in range(SETUP_RUNS)))
    return statistics.median(scaled), statistics.median(raw)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def environment() -> dict:
    return {
        "git_rev": _git_rev(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
    }


class Tally:
    """Checked outputs of a run: item counts and the hash of the fixed stretch."""

    def __init__(self, fixed_calls: int) -> None:
        self.fixed_calls = fixed_calls
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def add(self, checked) -> None:
        if self.calls < self.fixed_calls:
            self.digest.update(hashlib.sha256(checked.output).digest())
        self.calls += 1
        self.attempted += checked.items
        self.failed += checked.failed


def run_timed(w, seed: int, seconds: float) -> tuple[Tally, dict]:
    """Call until ``seconds`` have passed and the fixed stretch is done."""
    clock = time.perf_counter
    fixed_calls = w.fixed_calls
    tally = Tally(fixed_calls)
    meter = Meter(LATENCY_SLOTS)
    started = clock()
    for inp in w.inputs(seed):
        if tally.calls >= fixed_calls and clock() - started >= seconds:
            break
        t0 = clock()
        out = w.call(inp)
        elapsed = clock() - t0
        checked = w.check(inp, out)
        tally.add(checked)
        meter.add(elapsed, checked.items)
        if tally.calls == fixed_calls:
            # Read here, so that the peak covers the same work however fast the program runs.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    meter.flush()
    latencies = meter.values()
    metrics = {
        "items_per_s": (tally.attempted / meter.busy_s, "1/s"),
        "item_p50_ms": (percentile(latencies, 50.0) * 1e3, "ms"),
        "item_tail_ms": (percentile(latencies, w.tail_percentile) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "item_tail_percentile": w.tail_percentile,
        "latency_values": meter.kept,
        "values_beyond_tail": round(meter.kept * (100 - w.tail_percentile) / 100),
        "measured_s": clock() - started,
        "busy_s": meter.raw_s,
        "host_speed": meter.busy_s / meter.raw_s,
        "unscaled_items_per_s": tally.attempted / meter.raw_s,
    }
    return tally, {"metrics": metrics, "notes": notes}


def run_traced(w, seed: int) -> tuple[Tally, dict, dict]:
    """The fixed stretch untraced, then traced; per-layer metrics and spans."""
    import layers

    clock = time.perf_counter
    fixed_calls = w.fixed_calls
    inputs = list(islice(w.inputs(seed), fixed_calls))

    def one_pass() -> tuple[Tally, Meter]:
        tally = Tally(fixed_calls)
        meter = Meter(0)
        for inp in inputs:
            t0 = clock()
            out = w.call(inp)
            elapsed = clock() - t0
            checked = w.check(inp, out)
            tally.add(checked)
            meter.add(elapsed, checked.items)
        meter.flush()
        return tally, meter

    plain, plain_meter = one_pass()
    tracer = layers.tracer()
    layers.install(tracer)
    try:
        traced, traced_meter = one_pass()
    finally:
        tracer.restore()
    if traced.digest.digest() != plain.digest.digest():
        traced.failed = traced.attempted  # tracing must not change what the program returns
    overhead = traced_meter.busy_s / plain_meter.busy_s
    metrics = layers.metrics(tracer, overhead, percentile)
    notes = {
        "untraced_s": plain_meter.raw_s,
        "traced_s": traced_meter.raw_s,
        # per-layer times are as measured; times this factor gives reference seconds
        "traced_host_speed": traced_meter.busy_s / traced_meter.raw_s,
    }
    return traced, {"metrics": metrics, "notes": notes}, tracer.to_dict()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kmeans_richness" / "__init__.py").is_file():
        print(f"error: no kmeans_richness package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    w = workloads.make(args.workload, OUT)
    env = environment()
    trace_doc = None
    try:
        if args.trace:
            tally, result, trace_doc = run_traced(w, args.seed)
        else:
            setup, setup_raw = setup_seconds()
            tally, result = run_timed(w, args.seed, args.seconds)
            result["metrics"]["setup_s"] = (setup, "s")
            result["notes"]["unscaled_setup_s"] = setup_raw
    finally:
        w.close()

    metrics = result["metrics"]
    outputs_sha256 = tally.digest.hexdigest()
    fail_ratio = tally.failed / tally.attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "calls": tally.calls,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_ratio": fail_ratio,
        "outputs_sha256": outputs_sha256,
        "outputs_calls": min(tally.calls, w.fixed_calls),
        "notes": result["notes"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace_doc is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(trace_doc) + "\n")

    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed}: {tally.calls} calls, {tally.attempted} items,"
          f" {tally.failed} failed, fail_ratio {fail_ratio:g}")
    print(f"# outputs sha256 over the first {record['outputs_calls']} calls: {outputs_sha256}")
    for key, value in result["notes"].items():
        print(f"# {key}: {value:g}" if isinstance(value, float) else f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
