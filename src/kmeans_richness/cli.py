"""Command-line front end.

Subcommands: ``classify``, ``simulate``, ``probability``, ``verify``,
``certify``.  Machine formats render rationals as ``num/den`` strings and are
byte-stable for a fixed RNG seed.  Exit codes: 0 success / plan holds,
1 violation found, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

from . import cases, lloyd, model, verify

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

OUTPUT_DIR_ENV = "KMEANS_RICHNESS_OUTDIR"


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _load_config(source: str) -> model.DistanceConfig:
    """Accept inline config text, a JSON object, or a path to either."""
    text = source
    path = Path(source)
    try:
        if path.is_file():
            text = path.read_text()
    except OSError:
        pass
    text = text.strip()
    if text.startswith("{"):
        return model.config_from_dict(_parse_json(text, "config"))
    return model.parse_config(text)


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise CliError(f"bad JSON {what}: {exc}") from None


def _parse_seeding(text: str) -> model.Seeding:
    cleaned = text.strip().strip("{}")
    try:
        indices = tuple(int(part) for part in cleaned.split(",") if part.strip())
    except ValueError:
        raise CliError(f"bad seeding {text!r}; expected comma-separated indices") from None
    if not indices:
        raise CliError("empty seeding")
    return model.Seeding(indices)


def _resolve_output(path_text: str) -> Path:
    path = Path(path_text)
    if path.is_absolute():
        return path
    base = os.environ.get(OUTPUT_DIR_ENV)
    return Path(base) / path if base else path


def _check_writable(path: Path) -> None:
    """Fail before any work if ``path`` cannot be a file: it is a directory,
    or lies under a regular file (``mkdir`` raises)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise CliError(f"{path} is a directory")


def _emit_json(data) -> None:
    print(json.dumps(data, sort_keys=True, indent=2))


def _plan_text(plan: cases.AdversarialPlan) -> str:
    parts = []
    for name, seeding in zip(plan.names, plan.candidates):
        parts.append(f"{name}={seeding}" if name else str(seeding))
    return f"{plan.semantics.value} [{', '.join(parts)}]"


def render_partition(points: model.PointSet, partition: model.Partition) -> str:
    """Bracketed runs of a contiguous partition's points, with the gaps between them."""
    labels = partition.labels
    gaps = points.gaps()
    out = ["[o"]
    for i in range(1, len(labels)):
        sep = f"--{gaps[i - 1]}--"
        if labels[i] == labels[i - 1]:
            out.append(f" {sep} o")
        else:
            out.append(f"]{sep}[o")
    out.append("]")
    return "".join(out)


def render_trace(points: model.PointSet, trace: lloyd.LloydTrace) -> str:
    lines = []
    for i, step in enumerate(trace.steps):
        cents = ", ".join(
            str(v) + ("*" if flag else "")
            for v, flag in zip(step.centroids.values, step.centroids.empty)
        )
        lines.append(f"step {i}: centroids [{cents}]")
        if step.partition is not None:
            lines.append("        " + render_partition(points, step.partition))
    outcome = trace.outcome
    if isinstance(outcome, lloyd.Converged):
        lines.append("outcome: converged")
    elif isinstance(outcome, lloyd.TieEncountered):
        lines.append(
            f"outcome: tie at step {outcome.step_index}: point {outcome.point_index}"
            f" equidistant from clusters {list(outcome.clusters)}"
        )
    else:
        lines.append(f"outcome: iteration cap {outcome.cap} exceeded")
    return "\n".join(lines)


# --- subcommands ----------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    model._require_valid(cfg)
    label = cases.classify(cfg)
    try:
        plan = cases.adversarial_plan(cfg)
    except cases.UnclassifiedConfigError:
        plan = None
    if args.format == "json":
        data = {
            "label": str(label),
            "config": model.config_to_dict(cfg),
            "plan": None
            if plan is None
            else {
                "semantics": plan.semantics.value,
                "candidates": [list(s.indices) for s in plan.candidates],
                "names": list(plan.names),
            },
        }
        _emit_json(data)
    else:
        if plan is None:
            print(f"{label}; plan: none (exhaustive search applies)")
        else:
            print(f"{label}; plan: {_plan_text(plan)}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    points = model.embed(cfg)
    seeding = _parse_seeding(args.seeding)
    policy = lloyd.TiePolicy.BRANCH if args.tie_mode == "branch" else lloyd.TiePolicy.STRICT
    result = lloyd.run(points, seeding, policy, cap=args.cap)
    traces = result if isinstance(result, tuple) else (result,)
    target = model.target_partition(cfg.k)
    if args.format == "json":
        data = [lloyd.trace_to_dict(t) for t in traces]
        _emit_json(data[0] if len(data) == 1 else data)
    else:
        print(f"points: [{', '.join(str(x) for x in points.positions)}]")
        print(f"seeding: {seeding}")
        for b, trace in enumerate(traces):
            if len(traces) > 1:
                print(f"--- branch {b} ---")
            print(render_trace(points, trace))
            final = trace.final_partition
            if final is not None:
                marker = "equals" if final == target else "differs from"
                print(f"final partition {marker} the pairing partition")
    strict_tie = any(isinstance(t.outcome, lloyd.TieEncountered) for t in traces)
    if strict_tie and policy is lloyd.TiePolicy.STRICT:
        return EXIT_USAGE
    return EXIT_OK


def cmd_probability(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    model._require_valid(cfg)
    survey = verify.survey_seedings(cfg)
    probability = survey.probability
    if probability is None:
        raise CliError("no seeding run settled; probability undefined")
    bound = Fraction(comb(2 * cfg.k, cfg.k) - 1, comb(2 * cfg.k, cfg.k))
    violates = probability <= bound
    if args.format == "json":
        _emit_json(
            {
                "config": model.config_to_dict(cfg),
                "success_probability": str(probability),
                "reached": survey.reached_count,
                "ties_excluded": survey.tie_count,
                "total_seedings": survey.total,
                "bound": str(bound),
                "violates_bound": violates,
            }
        )
    else:
        print(f"success probability: {probability} (~ {float(probability):.6g})")
        print(f"seedings: {survey.reached_count} of {survey.total} reach the pairing partition"
              + (f" ({survey.tie_count} tied runs excluded)" if survey.tie_count else ""))
        if violates:
            print(f"bound check: {probability} <= {bound}; violates probabilistic {cfg.k}-richness")
        else:
            print(f"bound check: {probability} > {bound}; no violation witnessed")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    out_path = _resolve_output(args.output)
    csv_path = _resolve_output(args.csv) if args.csv else None
    # realpath, unlike Path.resolve, does not raise on a symlink loop
    if csv_path is not None and os.path.realpath(csv_path) == os.path.realpath(out_path):
        raise CliError("--csv names the same file as --output; give them different paths")
    if args.regions == "all":
        regions = verify.default_regions(args.k, args.bound)
    else:
        targets = [part.strip() for part in args.regions.split(",") if part.strip()]
        if not targets:
            raise CliError("no regions given")
        regions = tuple(
            verify.RegionSpec(k=args.k, target=target, bound=args.bound) for target in targets
        )
    if args.samples < 1:
        raise CliError("--samples must be >= 1")
    for path in (out_path, csv_path):
        if path is not None:
            _check_writable(path)
    report = verify.campaign(
        regions,
        samples_per_region=args.samples,
        rng_seed=args.seed,
        oracle=not args.no_oracle,
    )
    out_path.write_text(report.to_json() + "\n")
    if csv_path is not None:
        csv_path.write_text(report.to_csv())
    if args.format == "json":
        _emit_json(report.to_dict())
    elif args.format == "csv":
        print(report.to_csv(), end="")
    else:
        print(f"report written to {out_path}")
        for r in report.regions:
            status = f"holds={r.holds} violations={len(r.violations)} ties={r.ties_skipped}"
            extra = f"  note: {r.note}" if r.note else ""
            print(f"  {r.spec.name:24s} samples={r.samples:5d}  {status}{extra}")
            if r.error:
                print(f"    warning: {r.error}", file=sys.stderr)
        print(f"total violations: {report.violation_count}")
    return EXIT_VIOLATION if report.violation_count else EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    if args.check:
        data = _parse_json(Path(args.check).read_text(), "certificate")
        problems = verify.recheck_certificate(data)
        if problems:
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
            return EXIT_VIOLATION
        print("certificate checks out: every recorded claim reproduces")
        return EXIT_OK
    if not args.config:
        raise CliError("certify needs a config (or --check PATH)")
    cfg = _load_config(args.config)
    cert = verify.certify_config(cfg, oracle=True, include_traces=True)
    text = cert.to_json()
    if args.output:
        out_path = _resolve_output(args.output)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text + "\n")
        print(f"certificate written to {out_path}")
    else:
        print(text)
    return EXIT_OK if cert.verdict == verify.VERDICT_HOLDS else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmeans-richness",
        description="Exact Lloyd's k-means on the line with adversarial-seeding certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("human", "json")):
        p.add_argument("--format", choices=choices, default="human")

    p = sub.add_parser("classify", help="case label and prescribed seeding plan")
    p.add_argument("config", help="inline config text, JSON, or a file path")
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("simulate", help="run the Lloyd iteration and print the trace")
    p.add_argument("config")
    p.add_argument("--seeding", required=True, help="comma-separated 1-based point indices")
    p.add_argument("--tie-mode", choices=("strict", "branch"), default="strict")
    p.add_argument("--cap", type=int, default=lloyd.DEFAULT_CAP)
    add_format(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("probability", help="exact success probability over all seedings")
    p.add_argument("config")
    add_format(p)
    p.set_defaults(func=cmd_probability)

    p = sub.add_parser("verify", help="sample regions and certify the adversarial plans")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--regions", default="all", help='comma-separated labels, or "all"')
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=50)
    p.add_argument("--output", default="report.json")
    p.add_argument("--csv", default=None, help="also write a CSV summary here")
    p.add_argument("--no-oracle", action="store_true", help="skip the exhaustive enumeration")
    add_format(p, ("human", "json", "csv"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="full certificate (plan + oracle + traces) for one config")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--check", default=None, help="re-validate a certificate file instead")
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (  # ValueError includes ConfigParseError and NonPositiveDistanceError
        CliError, ValueError, ArithmeticError, OSError,
        cases.ClassificationTieError, lloyd.BranchLimitError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
