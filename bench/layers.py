"""The program's layer boundaries as the tracer sees them, and the per-layer
metrics read from a traced run.

Names carry the module prefix.  Hot leaves are summed per parent span (see
``tracer``); every other call keeps its own span.
"""

from __future__ import annotations

from kmeans_richness import cases, cli, lloyd, model, verify

from tracer import Stat, Tracer


def _survey(stat: Stat, survey) -> None:
    stat.extra["seedings"] += survey.total
    stat.extra["ties"] += survey.tie_count


def _lean(stat: Stat, result) -> None:
    _kind, _final, empty_seen, steps = result
    extra = stat.extra
    extra["steps"] += steps
    if steps > extra["steps_max"]:
        extra["steps_max"] = steps
    if empty_seen:
        extra["empty_rule_runs"] += 1


def _branch(stat: Stat, traces) -> None:
    stat.extra["traces"] += len(traces)


def _campaign(stat: Stat, report) -> None:
    stat.extra["samples"] += sum(r.samples for r in report.regions)
    stat.extra["ties_skipped"] += sum(r.ties_skipped for r in report.regions)


# (owner, attribute, traced name, summed per parent, observer)
LAYERS = (
    (cli, "main", "cli.main", False, None),
    (verify, "campaign", "verify.campaign", False, _campaign),
    (verify, "sample_config", "verify.sample_config", False, None),
    (model, "validate", "model.validate", True, None),
    (cases, "classify", "cases.classify", True, None),
    (verify, "certify_config", "verify.certify_config", False, None),
    (cases, "adversarial_plan", "cases.adversarial_plan", False, None),
    (verify, "survey_seedings", "verify.survey_seedings", False, _survey),
    (lloyd.LineEngine, "run_lean", "lloyd.LineEngine.run_lean", True, _lean),
    (lloyd, "run", "lloyd.run", True, None),
    (lloyd.LineEngine, "run_strict", "lloyd.LineEngine.run_strict", True, None),
    (lloyd.LineEngine, "run_branch", "lloyd.LineEngine.run_branch", True, _branch),
    (lloyd, "trace_digest", "lloyd.trace_digest", True, None),
    (verify.Report, "to_json", "verify.Report.to_json", False, None),
)

# Per-call tail of the layers in TIMED.
TAIL_PERCENTILE = 99.0

# Layers called often enough for a per-call median and tail.
TIMED = (
    "verify.sample_config",
    "model.validate",
    "cases.classify",
    "verify.certify_config",
    "verify.survey_seedings",
    "lloyd.LineEngine.run_lean",
    "lloyd.LineEngine.run_strict",
    "lloyd.LineEngine.run_branch",
    "lloyd.trace_digest",
)


def tracer() -> Tracer:
    return Tracer(aggregate=[name for _o, _a, name, summed, _f in LAYERS if summed])


def install(t: Tracer) -> None:
    for owner, attr, name, _summed, observe in LAYERS:
        t.patch(owner, attr, name, observe)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(t: Tracer, overhead_ratio: float, percentile) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    ``percentile(values, p)`` reads a percentile of per-call seconds.  A
    layer that never ran reads 0.
    """
    out: dict[str, tuple[float, str]] = {}
    for _owner, _attr, name, _summed, _observe in LAYERS:
        stat = t.stats.get(name) or Stat()
        out[f"{name}.calls"] = (stat.calls, "count")
        out[f"{name}.self_s"] = (stat.self_s, "s")
        out[f"{name}.total_s"] = (stat.total_s, "s")
        if name in TIMED:
            durations = stat.durations
            out[f"{name}.p50_ms"] = (percentile(durations, 50.0) * 1e3 if durations else 0.0, "ms")
            out[f"{name}.tail_ms"] = (
                percentile(durations, TAIL_PERCENTILE) * 1e3 if durations else 0.0, "ms"
            )

    def stat(name: str) -> Stat:
        return t.stats.get(name) or Stat()

    sample = stat("verify.sample_config")
    accepted = sample.calls - sample.raised
    validated = t.edges[("verify.sample_config", "model.validate")]
    out["verify.sample_config.accept_ratio"] = (_ratio(accepted, validated), "ratio")
    out["cases.classify.raised"] = (stat("cases.classify").raised, "count")
    out["cases.adversarial_plan.raised"] = (stat("cases.adversarial_plan").raised, "count")
    survey = stat("verify.survey_seedings").extra
    out["verify.survey_seedings.seedings"] = (survey["seedings"], "count")
    out["verify.survey_seedings.tie_ratio"] = (_ratio(survey["ties"], survey["seedings"]), "ratio")
    lean = stat("lloyd.LineEngine.run_lean").extra
    out["lloyd.LineEngine.run_lean.steps"] = (lean["steps"], "count")
    out["lloyd.LineEngine.run_lean.steps_max"] = (lean["steps_max"], "count")
    out["lloyd.LineEngine.run_lean.empty_rule_runs"] = (lean["empty_rule_runs"], "count")
    out["lloyd.LineEngine.run_branch.traces"] = (stat("lloyd.LineEngine.run_branch").extra["traces"], "count")
    camp = stat("verify.campaign").extra
    out["verify.campaign.tie_resample_ratio"] = (_ratio(camp["ties_skipped"], camp["samples"]), "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
