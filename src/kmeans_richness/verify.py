"""Campaign driver.

Samples configurations per case region, runs the prescribed adversarial
seedings against the Lloyd engine, exhaustively enumerates all seedings as an
independent check, computes exact success probabilities, and emits
machine-checkable certificates and aggregate reports.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations
from math import comb, prod
from operator import mul
from typing import Sequence

from . import cases, lloyd, model
from .cases import CaseLabel, PlanSemantics, _p_range
from .lloyd import DEFAULT_CAP, LineEngine, LloydTrace
from .model import DistanceConfig, Seeding, _require_valid

VERDICT_HOLDS = "plan-holds"
VERDICT_VIOLATED = "plan-violated"
VERDICT_SKIPPED = "skipped-tie"

SEMANTICS_ORACLE = "oracle-only"

TIE_RETRIES = 50
# Largest k a survey takes on: C(28,14) = 40,116,600 seedings, the largest
# survey measured to finish (38 s and 4.46 GB on a 2-core Xeon, CPython 3.11).
_MAX_SURVEY_K = 14
# Largest bound: entries stay within one 32-bit word, and the sampler's
# tests cover bounds up to it.
_MAX_BOUND = 2**32 - 1
# Most value buckets a sampling table spans; up to this bound, one per value.
G = 64


class RegionExhaustedError(RuntimeError):
    """The sampler found nothing: the region is empty at this bound, or its
    draws were rejected too often."""


# --- exhaustive seeding enumeration -------------------------------------------


@dataclass(frozen=True)
class SeedingSurvey:
    """Outcome counts over all C(2k, k) seedings of one configuration."""

    total: int
    reached_count: int
    failed_count: int
    tie_count: int
    cap_count: int
    first_failing: Seeding | None
    tied: tuple[Seeding, ...]
    empty_rule_used: bool

    @property
    def probability(self) -> Fraction | None:
        """Fraction of seedings reaching the pairing partition.

        Tied seedings are excluded from numerator and denominator alike;
        None when no run settled (or any hit the iteration cap).
        """
        if self.cap_count or self.total == self.tie_count:
            return None
        return Fraction(self.reached_count, self.total - self.tie_count)


def survey_seedings(cfg: DistanceConfig) -> SeedingSurvey:
    """Outcome counts over all C(2k, k) seedings under the iteration cap, with
    the first failing seeding and the tied ones in lexicographic order (see
    ``_survey``)."""
    return _survey(cfg)[0]


def _survey(cfg: DistanceConfig, probes: Sequence[Seeding] = ()) -> tuple[SeedingSurvey, list[str]] | None:
    """``survey_seedings``, and each probe seeding's outcome ("reached",
    "failed", "tie" or "cap-exceeded"; k > 1); None, with no walk, if a probe
    ties at step 0.

    Clusters on the line stay contiguous, so a partition is its k-1 cuts (the
    number of points left of each block boundary).  A seeding's first
    partition P is the tuple of step-0 cuts between adjacent seeds, read from
    ``_step0_table``, and a point on a midpoint ties every seeding through
    that pair.  The outcome depends on P only through Q, the partition its
    first step makes (ties included), and P's means on the blocks empty in Q
    (frozen centroids); the cap, ``DEFAULT_CAP`` read at each call, is at
    least 3, so whether P == Q changes no outcome.  Q's cut after P's block
    (a, b] and before (b, c] is one ``LineEngine._table`` entry.  So the
    seedings that extend a prefix depend on it only through its state: its
    last seed, its last two cuts, the cuts of Q it fixes, and a tag, None
    unless Q has an empty block (then that block's P cuts).  The seedings
    below each state are tallied once, depth first in lexicographic order,
    and added again wherever another prefix reaches the state; a prefix
    whose Q ties ties them all.  The last seed adds no later cut, so the
    last seeds after one state are taken in runs of equal step-0 cut, one
    first partition per run.  A state with one seed to come costs less to
    tally than to memoize, so the loop over the second-to-last seed j goes
    on over j's runs in place; at k=1 there is no cut at all.  A state is
    first reached by its lexicographically smallest prefix, so
    ``first_failing``, the tied order and ``empty_rule_used`` are those of a
    walk over every seeding.  Each state lists its tied seedings as entries that link to its
    tied subtrees and its children's entries; they are built once, at the
    end, in order.  Their indices are sorted, distinct and 1-based by
    construction, so they skip ``Seeding``'s checks.

    The empty-block tag is needed: without it, states with different frozen
    centroids merge, and a=50,50,3,1,3,3,50; p=50,50,1,50,50,2 would count
    890 failed and 2,542 tied seedings at the default cap, not 887 and 2,545.

    A partition with no empty block fixes the next centroids, so one Lloyd
    step runs per distinct such partition: a memo maps its cuts to the
    outcome ("reached", "failed" or "tie") and the depth, the number of
    steps to a fixed point or a tie.  A seeding is "cap-exceeded" iff its
    first partition's depth is at least the cap.  A chain that empties a
    block (``LineEngine.step`` returns False, unless the step also ties)
    goes on from a frozen centroid, so its seedings run from their seeds
    instead, once per first partition; only those runs can set
    ``empty_rule_used``.  A probe's outcome is its first partition's, settled
    after the walk if the walk did not reach it.
    """
    k = cfg.k
    _check_survey_limit(k)
    engine = LineEngine._of_config(cfg)
    n = 2 * k
    target = tuple(range(2, n, 2))
    rows, runs = _step0_table(engine._xs)
    cells = [[rows[i][j] for i, j in zip(s.indices, s.indices[1:])] for s in probes]
    if any(None in c for c in cells):
        return None
    # cuts -> (outcome, depth); outcome None: the chain empties a block
    memo: dict[tuple[int, ...], tuple[str | None, int]] = {}
    # first partition's cuts -> the outcome of its seedings
    settled: dict[tuple[int, ...], str] = {}
    first_failing: Seeding | None = None
    empty_used = False

    def settle(first: tuple[int, ...], indices: tuple[int, ...]) -> str:
        """Outcome of the seedings whose first partition is ``first``."""
        nonlocal empty_used
        key = first
        chain = []  # stepped partitions, up to a memo hit, fixed point, tie or empty block
        entry = memo.get(key)
        while entry is None:
            chain.append(key)
            nxt = engine.step(key)
            if nxt is None:
                entry = ("tie", 0)
            elif nxt is False:  # a block is empty
                entry = (None, 0)
            elif nxt == key:
                entry = ("reached" if key == target else "failed", 0)
            else:
                key = nxt
                entry = memo.get(key)
        for key in reversed(chain):
            entry = memo[key] = (entry[0], entry[1] + 1)
        outcome, depth = entry
        if outcome is None:
            outcome, final, empty_seen, _steps = engine.run_lean(indices, DEFAULT_CAP)
            if outcome == "converged":
                outcome = "reached" if final == target else "failed"
            empty_used = empty_used or empty_seen
        elif depth >= DEFAULT_CAP:
            outcome = "cap-exceeded"
        settled[first] = outcome
        return outcome

    # per last seed, the state's key -> the tallies below that state
    states: list[dict] = [{} for _ in range(n + 1)]
    table, cut_of = engine._table, engine._cut

    def tally(seeds: tuple[int, ...], cuts: tuple[int, ...], qs: tuple, tag, i: int, left: int):
        """(reached, failed, tie, cap, tied entries) of ``seeds`` (last seed i,
        step-0 cuts ``cuts``, Q's cuts ``qs``, ``tag``) extended by ``left`` +
        1 seeds, all after i; left >= 1."""
        nonlocal first_failing
        reached = failed = tie = capped = 0
        entries: list = []
        row = rows[i]
        if left > 1 and cuts:  # (a, b]: the last block; the next seed fixes Q's cut after it
            a, b = cuts[-2] if len(cuts) > 1 else 0, cuts[-1]
            last_q = qs[-1] if qs else 0
        for j in range(i + 1, n - left + 1):  # room for the seeds to come
            cell = row[j]
            if cell is None:  # every seeding below ties
                tie += comb(n - j, left)
                entries.append((j, left))
                continue
            if left == 1:  # the last seed after j: one first partition per run
                sub = cuts + cell
                below = []
                for last, js in runs[j]:
                    if last is None:
                        outcome = "tie"
                    else:
                        first = sub + last
                        outcome = settled.get(first) or settle(first, (*seeds, j, js[0]))
                    if outcome == "reached":
                        reached += len(js)
                    elif outcome == "failed":
                        failed += len(js)
                        if first_failing is None:
                            first_failing = Seeding._of_sorted((*seeds, j, js[0]))
                    elif outcome == "tie":
                        tie += len(js)
                        below += [(m, 0) for m in js]
                    else:
                        capped += len(js)
            else:
                key, sub_qs, sub_tag = cell, qs, tag
                if cuts:
                    cut = cell[0]
                    q = table.get((a, b, cut))
                    if q is None:
                        q = cut_of(a, b, cut)
                    if q < 0:  # every seeding below ties at the first step
                        tie += comb(n - j, left)
                        entries.append((j, left))
                        continue
                    if q <= last_q:  # Q's block (a, b] is empty: P's mean there is frozen
                        sub_tag = (tag, a, b)
                    sub_qs = qs + (q,)
                    key = (b, cut, sub_qs, sub_tag)
                known = states[j]
                state = known.get(key)
                if state is None:
                    state = known[key] = tally((*seeds, j), cuts + cell, sub_qs, sub_tag, j, left - 1)
                r, f, t, c, below = state
                reached += r
                failed += f
                tie += t
                capped += c
            if below:
                entries.append((j, below))
        return reached, failed, tie, capped, entries or ()

    if k > 1:
        reached, failed, tie, capped, entries = tally((), (), (), None, 0, k - 1)
    else:  # no cut at all: the one partition is the target, repeated at the second step
        reached, failed, tie, capped, entries = n, 0, 0, 0, ()
    firsts = [sum(c, ()) for c in cells]
    outcomes = [settled.get(f) or settle(f, s.indices) for f, s in zip(firsts, probes)]
    # tally refers to itself: drop the cycle, and the memos before the tied seedings are built
    del tally, settle, states, memo, settled
    tied: list[Seeding] = []
    _expand_tied(entries, (), n, tied)
    survey = SeedingSurvey(
        total=comb(n, k),
        reached_count=reached,
        failed_count=failed,
        tie_count=tie,
        cap_count=capped,
        first_failing=first_failing,
        tied=tuple(tied),
        empty_rule_used=empty_used,
    )
    return survey, outcomes


def _check_survey_limit(k: int) -> None:
    """Raise the survey's limit error if C(2k, k) seedings are past it."""
    if k > _MAX_SURVEY_K:
        m = _MAX_SURVEY_K
        raise ValueError(f"C({2 * k},{k}) seedings are past the survey's limit of C({2 * m},{m}) = {comb(2 * m, m):,}")


def _step0_table(xs: Sequence[int]) -> tuple[list[list], list[list]]:
    """(rows, runs) of sorted points ``xs``.  rows[i][j], seeds i < j (1-based):
    the step-0 cut between them as a one-entry tuple (one shared tuple per
    cut), None when a point lies on their midpoint; row 0 adds no cut.
    runs[i]: (cell, js) for the seeds j after i, in runs of equal cell.
    Point m lies left of the midpoint iff 2 x_m < x_i + x_j, and the cut only
    grows with j, so one pointer sweeps each row."""
    n = len(xs)
    twice = [2 * x for x in xs]
    cells = [(cut,) for cut in range(n)]
    rows, runs = [[()] * (n + 1)], [[]]
    for i, x in enumerate(xs, 1):
        row, row_runs, prev = [None] * (i + 1), [], 0  # prev 0: no run yet
        cut = i  # the seeds up to i lie left of every midpoint after i
        for j, y in enumerate(xs[i:], i + 1):
            mid = x + y
            while twice[cut] < mid:  # stops at j - 1 at the latest: 2 y > mid
                cut += 1
            cell = None if twice[cut] == mid else cells[cut]
            if cell is not prev:
                prev, js = cell, []
                row_runs.append((cell, js))
            js.append(j)
            row.append(cell)
        rows.append(row)
        runs.append(row_runs)
    return rows, runs


def _expand_tied(entries: list, prefix: tuple[int, ...], n: int, out: list[Seeding]) -> None:
    """Append the tied seedings that ``entries`` stand for below ``prefix``, in order.

    An entry ``(j, m)`` is every seeding ``prefix`` + j + m later seeds;
    ``(j, below)`` is ``below``'s entries under ``prefix`` + j.
    """
    seeding = Seeding._of_sorted  # sorted, distinct and 1-based by construction
    for j, below in entries:
        head = (*prefix, j)
        if type(below) is not int:
            _expand_tied(below, head, n, out)
        elif below:
            out += [seeding(head + r) for r in combinations(range(j + 1, n + 1), below)]
        else:
            out.append(seeding(head))


def success_probability(cfg: DistanceConfig) -> Fraction:
    """Exact fraction of seedings whose run converges to the pairing partition."""
    _require_valid(cfg)
    probability = survey_seedings(cfg).probability
    if probability is None:
        raise ArithmeticError("no seeding run settled; probability undefined")
    return probability


def richness_violation(cfg: DistanceConfig, epsilon: Fraction) -> bool:
    """True iff the pairing partition is reached with probability <= 1 - epsilon."""
    epsilon = model._coerce_rational(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must satisfy 0 < epsilon < 1")
    return success_probability(cfg) <= 1 - epsilon


# --- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class CandidateRecord:
    """One prescribed seeding's run; its certificate fields are read off the trace."""

    name: str | None
    trace: LloydTrace

    @property
    def seeding(self) -> Seeding:
        return self.trace.seeding

    @property
    def final_labels(self) -> tuple[int, ...] | None:
        final = self.trace.final_partition
        return final.labels if final is not None else None

    @property
    def reached_target(self) -> bool:
        final = self.trace.final_partition
        return final is not None and final == model.target_partition(self.seeding.k)

    def to_dict(self) -> dict:
        """The run's certificate fields, its trace under ``trace`` (serialized once)."""
        trace = self.trace
        data = lloyd.trace_to_dict(trace)
        final_labels = self.final_labels
        return {
            "name": self.name,
            "seeding": list(trace.seeding.indices),
            "outcome": trace.outcome.kind,
            "final_labels": list(final_labels) if final_labels is not None else None,
            "reached_target": self.reached_target,
            "empty_rule_used": trace.used_empty_cluster_rule(),
            "trace_digest": lloyd.trace_digest(data),
            "trace": data,
        }


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record that some seeding avoids the pairing partition.

    ``oracle`` is the survey of every seeding, and ``witness_trace`` the run
    of its first failing seeding.  With ``traced``, the candidates' traces
    and the witness trace are written out as well.
    """

    config: DistanceConfig
    label: str | None
    semantics: str
    candidates: tuple[CandidateRecord, ...]
    verdict: str
    skip_reason: str | None
    oracle: SeedingSurvey | None
    witness_trace: LloydTrace | None = None
    traced: bool = False

    def to_dict(self) -> dict:
        candidates = [c.to_dict() for c in self.candidates]
        if not self.traced:
            for out in candidates:
                del out["trace"]
        survey = self.oracle
        oracle = None
        if survey is not None:
            failing, probability = survey.first_failing, survey.probability
            oracle = {
                "failing_seeding": list(failing.indices) if failing is not None else None,
                "reached_count": survey.reached_count,
                "failed_count": survey.failed_count,
                "tie_count": survey.tie_count,
                "cap_count": survey.cap_count,
                "total": survey.total,
                "success_probability": str(probability) if probability is not None else None,
                "empty_rule_used": survey.empty_rule_used,
            }
            if self.witness_trace is not None:
                oracle["witness_trace"] = lloyd.trace_to_dict(self.witness_trace)
        return {
            "config": model.config_to_dict(self.config),
            "label": self.label,
            "semantics": self.semantics,
            "candidates": candidates,
            "verdict": self.verdict,
            "skip_reason": self.skip_reason,
            "oracle": oracle,
        }

    def to_json(self) -> str:
        return model._json_text(self.to_dict())


def certify_config(
    cfg: DistanceConfig, *, oracle: bool = True, include_traces: bool = False
) -> Certificate:
    """Classify, run the prescribed seedings, and (optionally) the oracle.

    The verdict follows the plan semantics; configurations without a
    prescribed plan (UNCLASSIFIED, or k < 4) get ``exists_failing_seeding``'s
    oracle-only certificate.  Any tie during a candidate run skips the
    certificate.
    """
    return _with_runs(*_decide(cfg, oracle), include_traces)


def _decide(cfg: DistanceConfig, oracle: bool) -> tuple[Certificate, tuple]:
    """``certify_config``'s verdict with no traces: its certificate with no
    runs, and the plan's (name, seeding) pairs to run.  With ``oracle`` the
    survey comes first and settles the candidates; a lean run is made for the
    first that ties or hits the cap, for its skip reason, and for each one
    up to it when one ties at step 0, which stops the survey before its walk."""
    if cfg.k < 4:
        _require_valid(cfg)
        return _oracle_only(cfg, None), ()
    try:
        label = cases.classify(cfg)  # validates too
    except cases.ClassificationTieError as exc:
        reason = f"classification tie: {exc.description}"
        return Certificate(cfg, None, SEMANTICS_ORACLE, (), VERDICT_SKIPPED, reason, None), ()
    if label.tag == cases.UNCLASSIFIED:
        return _oracle_only(cfg, cases.UNCLASSIFIED), ()
    plan = cases._adversarial_plan(label, cfg.k)

    surveyed = _survey(cfg, plan.candidates) if oracle else None
    survey, outcomes = surveyed or (None, [None] * len(plan.candidates))
    engine = None
    target = tuple(range(2, 2 * cfg.k, 2))  # the pairing's cuts
    reached, reason = [], None
    for seeding, outcome in zip(plan.candidates, outcomes):
        if outcome in ("reached", "failed"):
            reached.append(outcome == "reached")
            continue
        engine = engine or LineEngine._of_config(cfg)
        kind, detail, _empty, _steps = engine.run_lean(seeding.indices, DEFAULT_CAP)
        if kind != "converged":
            reason = f"candidate {seeding} hit the iteration cap {DEFAULT_CAP}"
            if kind == "tie":
                _step, i, pair = detail
                reason = f"tie during candidate {seeding}: point {i} between clusters {list(pair)}"
            break
        reached.append(detail == target)
    violated = any(reached) if plan.semantics is PlanSemantics.ALL_MUST_FAIL else all(reached)
    verdict = VERDICT_SKIPPED if reason else VERDICT_VIOLATED if violated else VERDICT_HOLDS
    survey = None if reason else survey
    cert = Certificate(cfg, str(plan.label), plan.semantics.value, (), verdict, reason, survey)
    return cert, tuple(zip(plan.names, plan.candidates))


def _with_runs(cert: Certificate, pairs: tuple, traced: bool) -> Certificate:
    """``_decide``'s certificate with strict runs of its (name, seeding)
    pairs, and of the survey's first failing seeding if ``traced``."""
    engine = LineEngine._of_config(cert.config)
    failing = cert.oracle.first_failing if cert.oracle is not None else None
    witness = engine.run_strict(failing, DEFAULT_CAP) if traced and failing is not None else None
    records = tuple(CandidateRecord(name, engine.run_strict(s, DEFAULT_CAP)) for name, s in pairs)
    return replace(cert, candidates=records, witness_trace=witness, traced=traced)


def exists_failing_seeding(cfg: DistanceConfig, include_witness_trace: bool = False) -> Certificate:
    """Exhaustively search the C(2k, k) seedings for one avoiding the pairing.

    The verdict is plan-violated only if every tie-free seeding reached it;
    the label is None below k=4 or on a classification tie.
    """
    label = None
    if cfg.k < 4:
        _require_valid(cfg)
    else:
        with suppress(cases.ClassificationTieError):
            label = str(cases.classify(cfg))  # validates too
    return _with_runs(_oracle_only(cfg, label), (), include_witness_trace)


def _oracle_only(cfg: DistanceConfig, label: str | None) -> Certificate:
    """The oracle-only certificate of a valid config, with no runs, from its survey alone."""
    survey = survey_seedings(cfg)
    reason = None
    if survey.first_failing is not None:
        verdict = VERDICT_HOLDS
    elif survey.reached_count and not survey.cap_count:
        verdict = VERDICT_VIOLATED
    else:
        verdict, reason = VERDICT_SKIPPED, "oracle runs tied or hit the cap on every seeding"
    return Certificate(cfg, label, SEMANTICS_ORACLE, (), verdict, reason, survey)


def _malformed(what: str) -> ValueError:
    return ValueError(f"malformed certificate: {what}")


def _recorded_seeding(value, k: int, where: str) -> Seeding:
    """A certificate's seeding: k distinct point indices in 1..2k."""
    if not (
        isinstance(value, list)
        and len(value) == k
        and all(type(i) is int and 1 <= i <= 2 * k for i in value)
        and len(set(value)) == k
    ):
        raise _malformed(f"{where} seeding must be {k} distinct indices in 1..{2 * k}")
    return Seeding(tuple(value))


def _diff(rebuilt, recorded, path: str, problems: list[str]) -> None:
    """Append one line per path where ``recorded`` differs from ``rebuilt``.

    Leaves must match in type as well as value, so ``1`` is not ``true``.
    A recorded key that is not an identifier is shown quoted, so that each
    problem stays on one line.
    """
    if isinstance(rebuilt, dict) and isinstance(recorded, dict):
        for key in sorted(rebuilt.keys() | recorded.keys(), key=str):
            name = key if key.isidentifier() else json.dumps(key)
            where = f"{path}.{name}" if path else name
            if key not in recorded:
                problems.append(f"{where}: missing from the certificate")
            elif key not in rebuilt:
                problems.append(f"{where}: not part of a rebuilt certificate")
            else:
                _diff(rebuilt[key], recorded[key], where, problems)
    elif isinstance(rebuilt, list) and isinstance(recorded, list) and len(rebuilt) == len(recorded):
        for i, (expected, value) in enumerate(zip(rebuilt, recorded)):
            _diff(expected, value, f"{path}[{i}]", problems)
    elif type(rebuilt) is not type(recorded) or rebuilt != recorded:
        problems.append(f"{path}: recorded {recorded!r:.60}, rebuilt {rebuilt!r:.60}")


def recheck_certificate(data: dict) -> list[str]:
    """Rebuild a certificate from its config and compare every field.

    The rebuild uses the options the certificate shows: an oracle-only
    certificate with no candidates and an oracle section comes from
    ``exists_failing_seeding``, any other from ``certify_config`` with the
    oracle on iff there is an oracle section; traces are on iff a candidate
    has a ``trace`` or the oracle a ``witness_trace``.  Returns one line per
    path where the two differ (empty means the certificate checks out);
    ``config`` is the input, not a claim, so it is not compared.
    Raises ValueError when ``data`` is not shaped like a certificate: an
    object holding a config object, a list of candidate objects, each with a
    seeding, an outcome and, if any, final labels, and an oracle object or null.
    """
    if not isinstance(data, dict) or not isinstance(data.get("config"), dict):
        raise _malformed("expected a JSON object with a 'config' object")
    cfg = model.config_from_dict(data["config"])
    candidates = data.get("candidates", [])
    if not isinstance(candidates, list) or not all(isinstance(c, dict) for c in candidates):
        raise _malformed("'candidates' must be a list of objects")
    oracle = data.get("oracle")
    if oracle is not None and not isinstance(oracle, dict):
        raise _malformed("'oracle' must be an object or null")
    if oracle and oracle.get("failing_seeding"):
        _recorded_seeding(oracle["failing_seeding"], cfg.k, "oracle failing")
    for cand in candidates:
        seeding = _recorded_seeding(cand.get("seeding"), cfg.k, "candidate")
        if not isinstance(cand.get("outcome"), str):
            raise _malformed(f"candidate {seeding} has no 'outcome' string")
        recorded = cand.get("final_labels")
        if recorded is not None and not (
            isinstance(recorded, list) and all(type(x) is int for x in recorded)
        ):
            raise _malformed(f"candidate {seeding} 'final_labels' must be a list of integers")

    traced = any("trace" in c for c in candidates) or "witness_trace" in (oracle or {})
    if data.get("semantics") == SEMANTICS_ORACLE and not candidates and oracle is not None:
        rebuilt = exists_failing_seeding(cfg, traced)
    else:
        rebuilt = certify_config(cfg, oracle=oracle is not None, include_traces=traced)
    expected = {**rebuilt.to_dict(), "config": data["config"]}  # the input, not a claim
    problems: list[str] = []
    _diff(expected, data, "", problems)
    return problems


# --- region sampling ------------------------------------------------------------


@dataclass(frozen=True)
class RegionSpec:
    """What to sample: k, a target case label (or "all-valid"), and the
    bound on the integer entries, which are drawn from {1..bound}."""

    k: int
    target: str = "all-valid"
    bound: int = 50

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.bound < 2:
            raise ValueError("bound must be >= 2")
        if self.bound > _MAX_BOUND:
            raise ValueError(f"bound must be <= {_MAX_BOUND} (entries stay within one 32-bit word)")
        label = cases._region(self.k, self.target)
        object.__setattr__(self, "target", str(label) if label else self.target)  # canonical form

    @property
    def name(self) -> str:
        return f"k={self.k}:{self.target}"


def _buckets(bound: int) -> tuple[tuple[int, int], ...]:
    """The (first, last) value buckets a sampling table spans: one per value
    up to ``G``, else ``G`` of near-equal size."""
    if bound <= G:
        return tuple((v, v) for v in range(1, bound + 1))
    return tuple((i * bound // G + 1, (i + 1) * bound // G) for i in range(G))


def _p_count(shapes: tuple[str, ...], x0: int, x1: int, y0: int, y1: int, bound: int) -> int:
    """The sum of ``_p_range``'s interval lengths over ``shapes``, which are disjoint."""
    count = 0
    for shape in shapes:
        lo, hi = _p_range(shape, x0, x1, y0, y1, bound)
        if hi >= lo:
            count += hi - lo + 1
    return count


def _nth_p(shapes: tuple[str, ...], x: int, y: int, bound: int, n: int) -> int:
    """The ``n``-th (from 0) p_j that gives a_j = x, a_{j+1} = y one of ``shapes``."""
    for shape in shapes:
        lo, hi = _p_range(shape, x, x, y, y, bound)
        if n <= hi - lo:
            return lo + n
        n -= max(0, hi - lo + 1)
    raise AssertionError("fewer allowed p than counted")


@cache
def _gap_counts(shapes: tuple[str, ...], bound: int) -> tuple[tuple[int, ...], ...]:
    """Per bucket of a_{j+1}, per bucket of a_j (``_buckets``): ``_p_count``
    over the two; exact for single values, else an envelope, a count that
    bounds that of every pair of values in them."""
    buckets = _buckets(bound)
    return tuple(tuple(_p_count(shapes, *xs, *ys, bound) for xs in buckets) for ys in buckets)


@cache
def _region_table(k: int, target: CaseLabel | None, bound: int) -> tuple:
    """(per gap, its ``_gap_counts``; per j, the weight of a_1..a_j by the
    bucket of a_j, that bucket's size included; the running sums of a_k's
    weights, whose last is the table's total)."""
    sizes = [last - first + 1 for first, last in _buckets(bound)]
    gaps = [_gap_counts(shapes, bound) for shapes in cases.gap_shapes(k, target)]
    forward = [sizes]
    for columns in gaps:
        weights = forward[-1]
        forward.append([size * sum(map(mul, weights, col)) for size, col in zip(sizes, columns)])
    return gaps, forward, list(accumulate(forward[-1]))


def sample_config(spec: RegionSpec, rng: random.Random) -> DistanceConfig:
    """A config drawn uniformly from the region's valid, predicate-tie-free
    configs with integer entries in 1..bound: the distribution of drawing
    every entry uniformly until a draw lands in the region.

    Each gap's triple (a_j, p_j, a_{j+1}) must take one of the shapes
    ``cases.gap_shapes`` gives the region.  For fixed a_j and a_{j+1}, each
    shape leaves p_j one interval, so a table counts the allowed p_j per
    pair of values, and weights summed along the chain a_1, ..., a_k count
    the tuples through each value.  The a's are drawn from a_k back to a_1
    in proportion to those counts, then each p_j uniformly from its allowed
    values.  A table is built on first use and kept per (k, target, bound)
    for the life of the process, so the first draw in a region pays for it.
    Above ``G``, a table spans ``G`` buckets of values, and each pair of
    buckets holds an envelope, a count that bounds that of every pair of
    values in them: the buckets are drawn by those envelopes, the a's
    uniformly within them, and the draw is kept with probability (product
    of the exact counts) / (product of the envelopes), which keeps it
    uniform.

    ``cases.label_of`` and the target's ``matches`` test every draw; where
    the shapes are exact, no draw fails them.  The budget of rejected draws,
    by that test or the envelope step, is 64 times the table's total: a draw
    lands on each config of the region with probability 1/total, so a region
    that holds any config runs out with probability below e^-64.  The next
    rejection raises ``RegionExhaustedError``; so does a table that holds no
    config, before anything is read from ``rng``.
    """
    if type(rng) is not random.Random:
        raise TypeError(f"sample_config needs a random.Random, got {type(rng).__name__}")
    k, bound, target = spec.k, spec.bound, cases._region(spec.k, spec.target)
    gaps, forward, last_sums = _region_table(k, target, bound)
    if not last_sums[-1]:
        raise RegionExhaustedError(f"region {spec.name} holds no config at bound {bound}; raise the bound")
    shapes = cases.gap_shapes(k, target)
    randrange, label_of = rng.randrange, cases.label_of
    budget = 64 * last_sums[-1]
    for _ in range(budget + 1):
        picked = [bisect_right(last_sums, randrange(last_sums[-1]))]
        for j in range(k - 2, -1, -1):
            row = list(accumulate(map(mul, forward[j], gaps[j][picked[-1]])))
            picked.append(bisect_right(row, randrange(row[-1])))
        picked.reverse()
        counts = [table[y][x] for table, x, y in zip(gaps, picked, picked[1:])]
        if bound <= G:
            a = [bucket + 1 for bucket in picked]
        else:  # keep the draw with probability (exact counts) / (envelopes)
            buckets = _buckets(bound)
            a = [first + randrange(last - first + 1) for first, last in map(buckets.__getitem__, picked)]
            envelope = prod(counts)
            counts = [_p_count(gap, x, x, y, y, bound) for gap, x, y in zip(shapes, a, a[1:])]
            if randrange(envelope) >= prod(counts):
                continue
        p = [
            _nth_p(gap, x, y, bound, randrange(count))
            for gap, x, y, count in zip(shapes, a, a[1:], counts)
        ]
        if k >= 4:
            try:
                label = label_of(a, p)
            except cases.ClassificationTieError:
                continue
            if target is not None and not label.matches(target):
                continue
        return DistanceConfig._of_ints(a, p)
    raise RegionExhaustedError(
        f"no config for region {spec.name} after {budget} rejected draws at bound {bound};"
        " raise the bound"
    )


# --- campaign -------------------------------------------------------------------


@dataclass
class RegionResult:
    spec: RegionSpec
    samples: int = 0
    holds: int = 0
    violations: tuple[Certificate, ...] = ()
    ties_skipped: int = 0
    oracle_samples: int = 0
    oracle_failing_found: int = 0
    min_probability: tuple[Fraction, DistanceConfig] | None = None
    max_probability: tuple[Fraction, DistanceConfig] | None = None
    error: str | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        def prob(extreme):
            if extreme is None:
                return None
            value, cfg = extreme
            return {"value": str(value), "config": model.config_to_dict(cfg)}

        return {
            "region": self.spec.name,
            "k": self.spec.k,
            "target": self.spec.target,
            "bound": self.spec.bound,
            "denominator": 1,  # the entries are integers; kept for the report format
            "samples": self.samples,
            "holds": self.holds,
            "violation_count": len(self.violations),
            "violations": [c.to_dict() for c in self.violations],
            "ties_skipped": self.ties_skipped,
            "oracle_samples": self.oracle_samples,
            "oracle_failing_found": self.oracle_failing_found,
            "min_success_probability": prob(self.min_probability),
            "max_success_probability": prob(self.max_probability),
            "error": self.error,
            "note": self.note,
        }


@dataclass
class Report:
    rng_seed: int
    samples_per_region: int
    oracle: bool
    regions: tuple[RegionResult, ...]

    @property
    def violation_count(self) -> int:
        return sum(len(r.violations) for r in self.regions)

    def to_dict(self) -> dict:
        return {
            "rng_seed": self.rng_seed,
            "samples_per_region": self.samples_per_region,
            "oracle": self.oracle,
            "violation_count": self.violation_count,
            "regions": [r.to_dict() for r in self.regions],
        }

    def to_json(self) -> str:
        return model._json_text(self.to_dict())

    def to_csv(self) -> str:
        # no cell needs quoting: each holds a region name, an int or a fraction
        header = ["region", "samples", "holds", "violations", "ties", "min_probability", "max_probability"]
        rows = [header]
        for r in self.regions:
            rows.append(
                [
                    r.spec.name,
                    r.samples,
                    r.holds,
                    len(r.violations),
                    r.ties_skipped,
                    str(r.min_probability[0]) if r.min_probability else "",
                    str(r.max_probability[0]) if r.max_probability else "",
                ]
            )
        return "".join(",".join(map(str, row)) + "\n" for row in rows)


def _derived_rng(root_seed: int, region_index: int, slot: int, attempt: int) -> random.Random:
    material = f"{root_seed}:{region_index}:{slot}:{attempt}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(material).digest()[:16], "big"))


def _slot(
    spec: RegionSpec, region_index: int, slot: int, rng_seed: int, oracle: bool
) -> tuple[int, Certificate | None, str | None]:
    """One campaign slot: (tied attempts, decided certificate or None, error
    or None).  Only a violation is certified, with traces."""
    for attempt in range(TIE_RETRIES):
        rng = _derived_rng(rng_seed, region_index, slot, attempt)
        try:
            cfg = sample_config(spec, rng)
        except RegionExhaustedError as exc:
            return attempt, None, str(exc)
        cert, pairs = _decide(cfg, oracle)
        if cert.verdict == VERDICT_VIOLATED:
            cert = _with_runs(cert, pairs, traced=True)
        if cert.verdict != VERDICT_SKIPPED:
            return attempt, cert, None
    return TIE_RETRIES, None, f"tie retries exhausted at sample {slot}"


def campaign(
    regions: Sequence[RegionSpec],
    samples_per_region: int,
    rng_seed: int,
    *,
    oracle: bool = True,
) -> Report:
    """Sample and certify ``samples_per_region`` configs per region.

    ``_slot`` decides each slot from its inputs alone, resampling a tied
    attempt from its own derived stream up to ``TIE_RETRIES`` times.  The
    slots are folded in order: tied attempts count as samples and as ties
    skipped, and a slot with no certificate records its error and ends its
    region without aborting the rest.  Deterministic for a fixed (regions,
    samples, seed): each (region, slot, attempt) triple derives its own RNG.
    """
    if samples_per_region < 1:
        raise ValueError("samples_per_region must be >= 1")
    for spec in regions:  # mirrors _decide, which surveys k<4 and UNCLASSIFIED samples with the oracle off too
        if oracle or spec.target in (cases.UNCLASSIFIED, "all-valid"):  # an all-valid region draws both
            _check_survey_limit(spec.k)
    results = []
    for region_index, spec in enumerate(regions):
        result = RegionResult(spec, note="no theorem claim at k<4" if spec.k < 4 else None)
        for slot in range(samples_per_region):
            tied, cert, error = _slot(spec, region_index, slot, rng_seed, oracle)
            result.samples += tied
            result.ties_skipped += tied
            if cert is None:
                result.error = error
                break
            result.samples += 1
            if cert.verdict == VERDICT_HOLDS:
                result.holds += 1
            else:
                result.violations += (cert,)
            if cert.oracle is not None:
                result.oracle_samples += 1
                if cert.oracle.first_failing is not None:
                    result.oracle_failing_found += 1
                if (probability := cert.oracle.probability) is not None:
                    if result.min_probability is None or probability < result.min_probability[0]:
                        result.min_probability = (probability, cert.config)
                    if result.max_probability is None or probability > result.max_probability[0]:
                        result.max_probability = (probability, cert.config)
        results.append(result)
    return Report(rng_seed, samples_per_region, oracle, tuple(results))


def default_regions(k: int, bound: int = 50) -> tuple[RegionSpec, ...]:
    """Every case region defined at this k (plus mirrored end variants)."""
    return tuple(RegionSpec(k, target, bound) for target in cases._region_targets(k))
