"""Certification, exhaustive search, probabilities, sampling, campaigns."""

import dataclasses
import hashlib
import itertools
import json
import pickle
import random
from fractions import Fraction

import pytest

from kmeans_richness import cases, lloyd, model, verify
from kmeans_richness.cases import CaseLabel, ClassificationTieError, classify, label_of
from kmeans_richness.model import (
    DistanceConfig,
    Seeding,
    embed,
    is_valid,
    parse_config,
    scale_config,
    validate,
)
from kmeans_richness.lloyd import LineEngine, trace_digest
from kmeans_richness.verify import (
    VERDICT_HOLDS,
    VERDICT_SKIPPED,
    VERDICT_VIOLATED,
    RegionExhaustedError,
    RegionSpec,
    campaign,
    certify_config,
    default_regions,
    exists_failing_seeding,
    recheck_certificate,
    richness_violation,
    sample_config,
    success_probability,
    survey_seedings,
)


class TestSurvey:
    def test_two_pair_wide_gap_all_reach(self):
        # small pairs, huge gap: every one of the 6 seedings lands on the pairing
        survey = survey_seedings(DistanceConfig((1, 1), (10,)))
        assert survey.total == 6
        assert survey.reached_count == 6
        assert survey.failed_count == 0
        assert survey.tie_count == 0
        assert survey.probability == 1

    def test_uniform_peaks_counts(self):
        survey = survey_seedings(DistanceConfig((1, 1, 1, 1), (3, 3, 3)))
        assert survey.total == 70
        assert survey.reached_count + survey.failed_count + survey.tie_count == 70
        assert survey.first_failing is not None
        assert Fraction(1, 70) <= survey.probability <= Fraction(69, 70)

    def test_single_pair(self):
        survey = survey_seedings(DistanceConfig((1,), ()))
        assert survey.total == 2
        assert survey.probability == 1

    def test_witness_behaviour_matches_runs(self):
        cfg = DistanceConfig((1, 1, 1, 1), (3, 3, 3))
        engine = LineEngine(embed(cfg))
        kind, final, _, _ = engine.run_lean((1, 3, 5, 7))
        assert kind == "converged" and final == (2, 4, 6)  # the pairing's cuts
        kind, final, _, _ = engine.run_lean((2, 5, 7, 8))
        assert kind == "converged" and final != (2, 4, 6)


class TestSuccessProbability:
    def test_single_pair_is_certain(self):
        assert success_probability(DistanceConfig((1,), ())) == 1

    def test_k4_bounded_away_from_one(self):
        rng = random.Random(31)
        for _ in range(20):
            spec = RegionSpec(k=4, target="all-valid", bound=9)
            cfg = sample_config(spec, rng)
            assert success_probability(cfg) <= Fraction(69, 70)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            success_probability(DistanceConfig((5, 1), (1,)))


class TestRichnessViolation:
    def test_k4_with_minimal_epsilon(self):
        rng = random.Random(32)
        spec = RegionSpec(k=4, target="all-valid", bound=9)
        for _ in range(10):
            cfg = sample_config(spec, rng)
            assert richness_violation(cfg, Fraction(1, 70))

    def test_single_pair_never_violates(self):
        assert not richness_violation(DistanceConfig((1,), ()), Fraction(1, 2))

    def test_matches_exact_probability(self):
        cfg = DistanceConfig((1, 1, 1, 1), (10, 10, 10))
        probability = success_probability(cfg)
        assert richness_violation(cfg, Fraction(9, 10)) == (probability <= Fraction(1, 10))

    def test_epsilon_range_enforced(self):
        cfg = DistanceConfig((1, 1), (10,))
        with pytest.raises(ValueError):
            richness_violation(cfg, Fraction(3, 2))
        with pytest.raises(ValueError):
            richness_violation(cfg, 0)

    def test_float_epsilon_rejected(self):
        # floats are rejected at the boundary: 0.1 is not exactly 1/10
        with pytest.raises(TypeError):
            richness_violation(DistanceConfig((1, 1), (10,)), 0.1)


class TestCheckPlan:
    """``certify_config`` with the oracle off: the plan's runs, and the oracle only
    where there is no plan."""

    def test_aa_example(self):
        cert = certify_config(DistanceConfig((1, 3, 3, 1), (2, 2, 2)), oracle=False)
        assert cert.label == "AA"
        assert cert.verdict == VERDICT_HOLDS
        record = cert.candidates[0]
        assert record.seeding.indices == (2, 4, 5, 7)
        assert not record.reached_target
        assert record.final_labels == (0, 0, 0, 1, 2, 3, 3, 3)
        assert cert.oracle is None  # plan check leaves the oracle off

    def test_add_uniform_gaps(self):
        cert = certify_config(DistanceConfig((1, 1, 1, 1), (3, 3, 3)), oracle=False)
        assert cert.label == "ADD"
        assert cert.semantics == "any-must-fail"
        assert cert.verdict == VERDICT_HOLDS
        s1 = cert.candidates[0]
        assert s1.name == "S1"
        assert s1.final_labels is not None
        assert not s1.reached_target

    def test_add_wide_gaps(self):
        cert = certify_config(DistanceConfig((1, 1, 1, 1), (10, 10, 10)), oracle=False)
        assert cert.verdict == VERDICT_HOLDS

    def test_unclassified_falls_back_to_oracle(self):
        cfg = DistanceConfig((3, 3, 1, 1, 1), (1, 4, 2, 2))
        cert = certify_config(cfg, oracle=False)
        assert cert.label == "UNCLASSIFIED"
        assert cert.semantics == "oracle-only"
        assert cert.candidates == ()
        assert cert.oracle is not None
        assert cert.verdict == VERDICT_HOLDS

    def test_small_k_judged_by_oracle(self):
        cert = certify_config(DistanceConfig((1, 1), (10,)), oracle=False)
        assert cert.label is None
        assert cert.verdict == VERDICT_VIOLATED  # every seeding reaches the pairing
        assert cert.oracle.reached_count == 6

    def test_classification_tie_skips(self):
        cert = certify_config(DistanceConfig((2, 2, 3, 1), (2, 2, 2)), oracle=False)
        assert cert.verdict == VERDICT_SKIPPED
        assert "tie" in cert.skip_reason


class TestExistsFailingSeeding:
    def test_k4_sample_always_finds_one(self):
        rng = random.Random(33)
        spec = RegionSpec(k=4, target="all-valid", bound=20)
        for _ in range(15):
            cfg = sample_config(spec, rng)
            cert = exists_failing_seeding(cfg)
            assert cert.verdict == VERDICT_HOLDS
            assert cert.oracle.first_failing is not None

    def test_two_pair_wide_gap_has_none(self):
        cert = exists_failing_seeding(DistanceConfig((1, 1), (10,)))
        assert cert.verdict == VERDICT_VIOLATED
        assert cert.oracle.first_failing is None
        assert cert.oracle.reached_count == 6
        assert cert.oracle.probability == 1

    def test_uniform_peaks_finds_failing(self):
        cert = exists_failing_seeding(DistanceConfig((1, 1, 1, 1), (3, 3, 3)))
        assert cert.verdict == VERDICT_HOLDS
        assert cert.oracle.first_failing is not None

    def test_oracle_consistency_with_plan_results(self):
        rng = random.Random(34)
        spec = RegionSpec(k=4, target="all-valid", bound=20)
        for _ in range(15):
            cfg = sample_config(spec, rng)
            plan_cert = certify_config(cfg, oracle=False)
            if plan_cert.verdict != VERDICT_HOLDS:
                continue
            oracle_cert = exists_failing_seeding(cfg)
            assert oracle_cert.oracle.first_failing is not None


class TestCertifyConfig:
    def test_full_certificate_shape(self):
        cert = certify_config(DistanceConfig((1, 3, 3, 1), (2, 2, 2)), include_traces=True)
        data = cert.to_dict()
        assert data["label"] == "AA"
        assert data["verdict"] == "plan-holds"
        assert data["candidates"][0]["trace"]["steps"]
        assert data["oracle"]["witness_trace"]["steps"]
        assert data["oracle"]["success_probability"].count("/") <= 1

    def test_verdict_scale_invariant(self):
        rng = random.Random(35)
        spec = RegionSpec(k=4, target="all-valid", bound=12)
        decided = 0
        for _ in range(12):
            cfg = sample_config(spec, rng)
            base = certify_config(cfg)
            scaled = certify_config(scale_config(cfg, Fraction(3, 7)))
            assert base.verdict == scaled.verdict
            assert base.label == scaled.label
            assert [c.final_labels for c in base.candidates] == [
                c.final_labels for c in scaled.candidates
            ]
            if base.verdict == VERDICT_SKIPPED:
                continue  # ties are scale-invariant too; no oracle section then
            assert base.oracle.probability == scaled.oracle.probability
            decided += 1
        assert decided >= 8

    def test_empty_rule_usage_recorded(self):
        cert = certify_config(DistanceConfig((1, 3, 3, 1), (2, 2, 2)))
        assert all(isinstance(c.to_dict()["empty_rule_used"], bool) for c in cert.candidates)

    def test_recheck_passes_on_own_output(self):
        add = DistanceConfig((1, 1, 1, 1), (3, 3, 3))

        def traced(cfg):
            return certify_config(cfg, include_traces=True)

        def plan_only(cfg):
            return certify_config(cfg, oracle=False)

        for build, cfg in (
            (traced, add),
            (traced, DistanceConfig((3, 3, 1, 1, 1), (1, 4, 2, 2))),  # UNCLASSIFIED, oracle-only
            (traced, DistanceConfig((1, 1), (10,))),  # no plan below k=4
            (plan_only, add),
            (exists_failing_seeding, add),  # oracle-only, though the config has a plan
            (certify_config, add),  # no traces
            (traced, DistanceConfig((2, 2, 3, 1), (2, 2, 2))),  # classification tie
            (traced, DistanceConfig((2, 2, 1, 1), (1, 1, 1))),  # tie during candidate {1,3,5,7}
        ):
            data = json.loads(build(cfg).to_json())
            assert recheck_certificate(data) == []

    def test_recheck_catches_tampering(self):
        cert = certify_config(DistanceConfig((1, 3, 3, 1), (2, 2, 2)), include_traces=True)
        data = json.loads(cert.to_json())
        data["candidates"][0]["reached_target"] = True
        assert recheck_certificate(data)
        data = json.loads(cert.to_json())
        data["candidates"][0]["final_labels"] = [0, 0, 1, 1, 2, 2, 3, 3]
        assert recheck_certificate(data)
        # plant a witness that actually reaches the pairing partition
        wide = certify_config(DistanceConfig((1, 1), (10,)), include_traces=True)
        data = json.loads(wide.to_json())
        data["oracle"]["failing_seeding"] = [1, 3]
        assert recheck_certificate(data)


# config -> SHA-256 of certify_config's JSON without traces, then with traces
CERTIFICATE_SHA256 = {
    "a=1,3,3,1; p=2,2,2": (  # AA
        "439394f2ecf3d12b16d1a1a53fe785194253903358d1db585d7d85e42dc911f9",
        "30c89c1c137a20230f9a1dce258b1ecc37930eb9cfde8398d7f66dea6dd998a0",
    ),
    "a=1,1,1,1; p=3,3,3": (  # ADD
        "967a847a5b6cb2864e2fb7cc0159296c0a8a3b6de1b070b6be9b01f18f1bf5a0",
        "e4ae94e7a53fa8df68e7b3ddc41e555baa3aded0447e19f7001c71991ad1581c",
    ),
    "a=2,2,1,1; p=1,1,1": (  # tie during candidate {1,3,5,7}
        "97735e2beaad22d42f55c186181ab329bea4e9e9b5359e174d0f530b49ad95e1",
        "532c016dd22d80930d348b5e521ac35c11d0f15b3aa06930a3555b2a66097a86",
    ),
    "a=2,2,3,1; p=2,2,2": (  # classification tie: nothing to trace
        "67e58f0e787907fb6a55c0d9d329abb6e46ffb6b7fd64bc9ec09bd38c42a519c",
        "67e58f0e787907fb6a55c0d9d329abb6e46ffb6b7fd64bc9ec09bd38c42a519c",
    ),
    "a=3,3,1,1,1; p=1,4,2,2": (  # UNCLASSIFIED: oracle-only
        "30fbf3eff7067f1a1cee26e27f4d17cafd31eba4d5d6da83d1f9e18726415ddb",
        "d771e6ac5259d005ffebfd0b4878f3bd0c55087de167de09570c6d99014a989a",
    ),
    "a=1,1; p=10": (  # no plan below k=4, and no failing seeding to trace
        "ee593a1d5516432ea06252c2e1d71797596f84aa3c36ff6856d13336e1be40a8",
        "ee593a1d5516432ea06252c2e1d71797596f84aa3c36ff6856d13336e1be40a8",
    ),
}


class TestCertificateBytes:
    """Certificate bytes are pinned: a change to how a certificate is built or
    written that alters its JSON for one of these configs shows here."""

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("text", list(CERTIFICATE_SHA256))
    def test_certify_config_sha256(self, text, traced):
        cert = certify_config(parse_config(text), include_traces=traced)
        digest = hashlib.sha256(cert.to_json().encode()).hexdigest()
        assert digest == CERTIFICATE_SHA256[text][traced]

    def test_exists_failing_seeding_sha256(self):
        cert = exists_failing_seeding(parse_config("a=1,3,3,1; p=2,2,2"), True)
        assert '"witness_trace"' in cert.to_json()
        digest = hashlib.sha256(cert.to_json().encode()).hexdigest()
        assert digest == "f7fa1b5d5d661d97706573e0e92f022c6aa315f20b5aa321a3bd614928c18254"

    def test_traced_certificate_serializes_each_trace_once(self, monkeypatch):
        calls = []
        serialize = lloyd.trace_to_dict

        def counted(trace):
            calls.append(trace)
            return serialize(trace)

        monkeypatch.setattr(lloyd, "trace_to_dict", counted)
        cert = certify_config(parse_config("a=1,1,1,1; p=3,3,3"), include_traces=True)
        digest = hashlib.sha256(cert.to_json().encode()).hexdigest()
        assert digest == CERTIFICATE_SHA256["a=1,1,1,1; p=3,3,3"][True]
        assert len(calls) == 5  # four candidates and the witness
        assert len({id(trace) for trace in calls}) == 5


def pairing_plan(prescribed):
    """``prescribed`` with its candidates replaced by {1,3,5,7}, which reaches the
    pairing on ADD configs: the plan is violated."""

    def plan(label, k):
        return dataclasses.replace(
            prescribed(label, k), candidates=(Seeding((1, 3, 5, 7)),), names=(None,)
        )

    return plan


def reference_decision(cert):
    """(verdict, skip reason) read off a certificate's strict traces, as
    ``certify_config`` decided before it made lean runs."""
    if not cert.candidates:
        return cert.verdict, cert.skip_reason
    reached = [c.reached_target for c in cert.candidates]
    all_must_fail = cert.semantics == cases.PlanSemantics.ALL_MUST_FAIL.value
    violated = any(reached) if all_must_fail else all(reached)
    stuck = next((c for c in cert.candidates if not c.trace.converged), None)
    if stuck is None:
        return (VERDICT_VIOLATED if violated else VERDICT_HOLDS), None
    outcome = stuck.trace.outcome
    if isinstance(outcome, lloyd.TieEncountered):
        reason = (
            f"tie during candidate {stuck.seeding}: point {outcome.point_index}"
            f" between clusters {list(outcome.clusters)}"
        )
    else:
        reason = f"candidate {stuck.seeding} hit the iteration cap {verify.DEFAULT_CAP}"
    return VERDICT_SKIPPED, reason


def decision_configs():
    """Valid configs from k=2 to k=6: sampled from every region, plus small
    entries that tie often."""
    rng = random.Random(13)
    out = []
    for k in range(2, 7):
        for spec in default_regions(k, bound=30):
            out += [sample_config(spec, rng) for _ in range(3)]
        small = []
        while len(small) < 30:
            a = tuple(rng.randint(1, 4) for _ in range(k))
            p = tuple(rng.randint(1, 4) for _ in range(k - 1))
            if is_valid(a, p):
                small.append(DistanceConfig(a, p))
        out += small
    return out


NAMED_PATHS = [
    ("a=2,2,1,1; p=1,1,1", VERDICT_SKIPPED, "tie during candidate {1,3,5,7}"),
    ("a=2,2,3,1; p=2,2,2", VERDICT_SKIPPED, "classification tie"),
    ("a=3,3,1,1,1; p=1,4,2,2", VERDICT_HOLDS, None),  # UNCLASSIFIED
    ("a=1,1; p=10", VERDICT_VIOLATED, None),  # k=2
    ("a=1,3,3,1; p=2,2,2", VERDICT_HOLDS, None),  # AA
]


class TestDecision:
    """The campaign's decision step (lean runs, no traces) against
    ``certify_config`` and against a verdict read off strict traces."""

    def check(self, cfg, oracle=True):
        cert, pairs = verify._decide(cfg, oracle)
        full = certify_config(cfg, oracle=oracle, include_traces=True)
        assert cert.candidates == () and cert.witness_trace is None
        assert (cert.label, cert.semantics) == (full.label, full.semantics)
        assert (cert.verdict, cert.skip_reason) == (full.verdict, full.skip_reason)
        assert (cert.verdict, cert.skip_reason) == reference_decision(full)
        assert [(name, s) for name, s in pairs] == [(c.name, c.seeding) for c in full.candidates]
        assert cert.oracle == full.oracle
        return cert

    def test_sampled_configs(self):
        seen = set()
        for cfg in decision_configs():
            cert = self.check(cfg)
            seen.add((cert.semantics, cert.verdict, (cert.skip_reason or "")[:20]))
        paths = {(semantics, verdict) for semantics, verdict, _ in seen}
        assert ("oracle-only", VERDICT_VIOLATED) in paths  # k < 4
        assert ("all-must-fail", VERDICT_HOLDS) in paths
        assert ("any-must-fail", VERDICT_HOLDS) in paths
        assert any(reason.startswith("classification tie") for *_, reason in seen)
        assert any(reason.startswith("tie during candi") for *_, reason in seen)

    @pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "no-oracle"])
    @pytest.mark.parametrize("text, verdict, reason", NAMED_PATHS)
    def test_named_paths(self, text, verdict, reason, oracle):
        cert = self.check(parse_config(text), oracle)
        assert cert.verdict == verdict
        assert (cert.skip_reason or "").startswith(reason or "")

    def test_oracle_leaves_the_decision_alone(self, monkeypatch):
        # with the oracle on, the survey settles the candidates; a candidate
        # tied at step 0 stops it before the walk, a later tie discards it
        survey, probed = verify._survey, []

        def recorded(cfg, cap, probes=()):
            result = survey(cfg, cap, probes)
            if probes:
                probed.append(result)
            return result

        monkeypatch.setattr(verify, "_survey", recorded)
        configs = decision_configs() + [parse_config(text) for text, *_ in NAMED_PATHS]
        tied_surveys = set()
        for cfg in configs:
            probed.clear()
            on, on_pairs = verify._decide(cfg, True)
            off, off_pairs = verify._decide(cfg, False)
            assert (on.verdict, on.skip_reason) == (off.verdict, off.skip_reason)
            assert on_pairs == off_pairs
            if on.skip_reason and on.skip_reason.startswith("tie during"):
                assert on.oracle is None
                tied_surveys.add(probed[0] is None)
        assert tied_surveys == {True, False}  # both kinds of candidate tie were met

    def test_holding_samples_make_only_the_surveys_steps(self, monkeypatch):
        # no candidate runs: the plan's outcomes come from the survey
        calls = []
        step, lean = LineEngine.step, LineEngine.run_lean

        def counted_step(self, cuts):
            calls.append(("step", cuts))
            return step(self, cuts)

        def counted_lean(self, *args):
            calls.append(("lean", args))
            return lean(self, *args)

        monkeypatch.setattr(LineEngine, "step", counted_step)
        monkeypatch.setattr(LineEngine, "run_lean", counted_lean)
        cert, _pairs = verify._decide(parse_config("a=1,3,3,1; p=2,2,2"), True)
        assert cert.verdict == VERDICT_HOLDS
        assert calls and {kind for kind, _ in calls} == {"step"}
        held = merged = 0
        for cfg in decision_configs():
            calls.clear()
            cert, _pairs = verify._decide(cfg, True)
            if cert.verdict != VERDICT_HOLDS or cert.semantics == verify.SEMANTICS_ORACLE:
                continue
            decided = list(calls)
            calls.clear()
            survey_seedings(cfg)
            # the survey's steps, then the chains of the candidates the walk merged away
            assert decided[: len(calls)] == calls
            assert {kind for kind, _ in decided} == {"step"}
            engine = LineEngine._of_config(cfg)
            xs = engine._xs
            firsts = {  # the candidates' first partitions
                tuple(lloyd._boundaries(xs, [(xs[i - 1], 1) for i in s.indices]))
                for s in cases.adversarial_plan(cfg).candidates
            }
            prev = None
            for _kind, cuts in decided[len(calls) :]:
                assert cuts in firsts or cuts == step(engine, prev)  # a chain starts at a candidate
                prev = cuts
            held += 1
            merged += len(decided) > len(calls)
        assert held > 10 and merged

    def test_tied_candidate_runs_once(self, monkeypatch):
        # the skip reason comes from the lean run that found the tie, not a rerun;
        # the candidate ties at step 0, so the survey stops before any Lloyd step
        iterate, calls, step, steps = lloyd._iterate, [], LineEngine.step, []
        monkeypatch.setattr(lloyd, "_iterate", lambda *args: calls.append(args) or iterate(*args))
        monkeypatch.setattr(LineEngine, "step", lambda self, c: steps.append(c) or step(self, c))
        cert, _pairs = verify._decide(parse_config("a=2,2,1,1; p=1,1,1"), True)
        assert cert.skip_reason.startswith("tie during candidate {1,3,5,7}")
        assert len(calls) == 1
        assert steps == []

    def test_cap_path(self, monkeypatch):
        lean, strict, survey = LineEngine.run_lean, LineEngine.run_strict, verify._survey
        monkeypatch.setattr(LineEngine, "run_lean", lambda self, seeds, cap=1: lean(self, seeds, 1))
        monkeypatch.setattr(LineEngine, "run_strict", lambda self, s, cap=1: strict(self, s, 1))
        monkeypatch.setattr(verify, "_survey", lambda cfg, cap, probes=(): survey(cfg, 1, probes))
        for oracle in (True, False):
            cert = self.check(parse_config("a=1,3,3,1; p=2,2,2"), oracle)
            assert cert.verdict == VERDICT_SKIPPED
            reason = f"candidate {{2,4,5,7}} hit the iteration cap {verify.DEFAULT_CAP}"
            assert cert.skip_reason == reason

    def test_violation_path(self, monkeypatch):
        monkeypatch.setattr(cases, "_adversarial_plan", pairing_plan(cases._adversarial_plan))
        rng = random.Random(5)
        for _ in range(5):
            cfg = sample_config(RegionSpec(k=4, target="ADD", bound=12), rng)
            assert self.check(cfg).verdict == VERDICT_VIOLATED
            assert self.check(cfg, oracle=False).verdict == VERDICT_VIOLATED


# (path into the certificate, tampered value); every one must be reported
TAMPERINGS = [
    (("label",), "AA"),
    (("verdict",), "plan-violated"),
    (("oracle", "success_probability"), "1/2"),
    (("oracle", "reached_count"), 999),
    (("oracle", "failed_count"), 21),
    (("oracle", "tie_count"), 13),
    (("oracle", "cap_count"), 1),
    (("oracle", "total"), 71),
    (("oracle", "empty_rule_used"), True),
    (("oracle", "failing_seeding"), [1, 2, 3, 5]),
    (("oracle", "failing_seeding"), None),
    (("oracle", "witness_trace", "seeding"), [1, 2, 3, 5]),
    (("candidates", 0, "trace_digest"), "sha256:00"),
    (("candidates", 0, "empty_rule_used"), True),
    (("candidates", 0, "reached_target"), True),
    (("candidates", 0, "final_labels"), [0, 0, 1, 1, 2, 2, 3, 3]),
    (("candidates", 0, "outcome"), "tie"),
    (("candidates", 0, "trace", "outcome", "final_labels"), [0, 0, 1, 1, 2, 2, 3, 3]),
    (("semantics",), "oracle-only"),
    pytest.param(("candidates",), lambda cands: cands[:1], id="('candidates',)-first-only"),
    (("candidates", 0, "name"), "S9"),
    (("skip_reason",), "tie during candidate {2,5,7,8}"),
    pytest.param(
        ("candidates", 0),
        lambda cand: {key: value for key, value in cand.items() if key != "trace"},
        id="('candidates', 0)-trace-removed",
    ),
]


@pytest.mark.parametrize("path, value", TAMPERINGS, ids=lambda x: str(x))
def test_recheck_catches_each_tampered_field(path, value):
    # ADD: four candidate runs and an oracle section with a witness trace.
    # A callable value computes the tampered value from the recorded one.
    data = json.loads(
        certify_config(DistanceConfig((1, 1, 1, 1), (3, 3, 3)), include_traces=True).to_json()
    )
    assert recheck_certificate(data) == []
    node = data
    for key in path[:-1]:
        node = node[key]
    value = value(node[path[-1]]) if callable(value) else value
    assert node[path[-1]] != value
    node[path[-1]] = value
    assert recheck_certificate(data)


class TestSampleConfig:
    def test_membership(self):
        rng = random.Random(36)
        spec = RegionSpec(k=4, target="AA", bound=4)
        for _ in range(5):
            cfg = sample_config(spec, rng)
            a1, a2 = cfg.a[0], cfg.a[1]
            p12 = cfg.p[0]
            assert a1 < p12 < a2
            assert validate(cfg).valid

    def test_exhaustion_at_tight_bound(self):
        # ascending left end needs three distinct values; impossible in {1, 2}
        rng = random.Random(37)
        spec = RegionSpec(k=4, target="AA", bound=2)
        with pytest.raises(RegionExhaustedError):
            sample_config(spec, rng)

    def test_all_valid_small_k(self):
        rng = random.Random(38)
        cfg = sample_config(RegionSpec(k=2, target="all-valid", bound=3), rng)
        assert validate(cfg).valid

    def test_labeled_region_needs_k4(self):
        with pytest.raises(ValueError):
            RegionSpec(k=3, target="AA")

    @pytest.mark.parametrize(
        "k, target",
        [(5, "AA"), (4, "BA"), (4, "ADA~"), (6, "BD~"),
         (4, "AA(2)"), (5, "BC(1)"), (5, "BA(3)"), (6, "BD(7)"), (5, "BC(4)~")],
    )
    def test_label_the_classifier_never_returns_rejected(self, k, target):
        with pytest.raises(ValueError, match="no k="):
            RegionSpec(k=k, target=target)

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_region_params_are_the_classifiers(self, k):
        """Every label of a valid config with entries in 1..3 is a region, and
        every param a region rejects is one the classifier never returns."""
        returned = set()
        for entries in itertools.product((1, 2, 3), repeat=2 * k - 1):
            a, p = entries[:k], entries[k:]
            if not is_valid(a, p):
                continue
            try:
                returned.add(label_of(a, p))
            except ClassificationTieError:
                continue
        for label in returned:
            RegionSpec(k=k, target=str(label))
        for tag, mirrored in {(label.tag, label.mirrored) for label in returned}:
            for param in range(k + 2):
                label = CaseLabel(tag, mirrored, param)
                try:
                    RegionSpec(k=k, target=str(label))
                except ValueError:
                    assert label not in returned, label
                else:
                    assert label in returned, label

    def test_denominator_scales_entries(self):
        rng = random.Random(39)
        spec = RegionSpec(k=4, target="AA", bound=12, denominator=5)
        cfg = sample_config(spec, rng)
        assert all(x <= Fraction(12, 5) for x in cfg.a)

    def test_deterministic_given_rng(self):
        spec = RegionSpec(k=4, target="ADD", bound=12)
        a = sample_config(spec, random.Random(40))
        b = sample_config(spec, random.Random(40))
        assert a == b

    @pytest.mark.parametrize("k, target", [(4, "ACB~"), (5, "BC(3)"), (4, "all-valid")])
    def test_target_parsed_once_per_spec(self, monkeypatch, k, target):
        spec = RegionSpec(k=k, target=target, bound=12)

        def draws():
            rng = random.Random(42)
            return [sample_config(spec, rng) for _ in range(5)], rng.getstate()

        expected = draws()

        def refuse(cls, text):
            raise AssertionError("the target was parsed again after the spec was built")

        monkeypatch.setattr(CaseLabel, "parse", classmethod(refuse))
        assert draws() == expected

    def test_unclassified_region(self):
        rng = random.Random(41)
        spec = RegionSpec(k=5, target="UNCLASSIFIED", bound=12)
        cfg = sample_config(spec, rng)
        assert str(classify(cfg)) == "UNCLASSIFIED"


class TestCampaign:
    def test_deterministic_reports(self):
        regions = default_regions(4, bound=12)[:3]
        a = campaign(regions, 4, rng_seed=5)
        b = campaign(regions, 4, rng_seed=5)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_seed_changes_report(self):
        regions = default_regions(4, bound=12)[:1]
        a = campaign(regions, 4, rng_seed=5)
        b = campaign(regions, 4, rng_seed=6)
        assert a.to_json() != b.to_json()

    def test_empty_region_list(self):
        report = campaign((), 5, rng_seed=0)
        assert report.regions == ()
        assert report.violation_count == 0

    def test_quota_of_decided_certificates(self):
        regions = (RegionSpec(k=4, target="ADD", bound=12),)
        report = campaign(regions, 6, rng_seed=1)
        result = report.regions[0]
        assert result.holds + len(result.violations) == 6
        assert result.samples == 6 + result.ties_skipped

    def test_exhaustion_surfaced_without_aborting_others(self):
        regions = (
            RegionSpec(k=4, target="AA", bound=2),
            RegionSpec(k=4, target="AA", bound=12),
        )
        report = campaign(regions, 2, rng_seed=2)
        assert report.regions[0].error is not None
        assert report.regions[1].error is None
        assert report.regions[1].holds == 2

    def test_tie_retries_exhausted(self, monkeypatch):
        # every attempt of a slot skipped: the region stops at its first slot,
        # and the next region still runs
        def skipped(cfg, oracle):
            reason = "classification tie: forced"
            cert = verify.Certificate(cfg, None, "oracle-only", (), VERDICT_SKIPPED, reason, None)
            return cert, ()

        monkeypatch.setattr(verify, "_decide", skipped)
        regions = (RegionSpec(k=4, target="AA", bound=12), RegionSpec(k=4, target="AB", bound=12))
        report = campaign(regions, 3, rng_seed=6)
        assert len(report.regions) == 2
        for result in report.regions:
            assert result.error == "tie retries exhausted at sample 0"
            assert result.samples == result.ties_skipped == verify.TIE_RETRIES
            assert result.holds == 0

    def test_exhaustion_after_tied_attempts(self, monkeypatch):
        # slot 0 is decided; slot 1 ties twice and then finds the region dry:
        # those two attempts count as samples and as ties skipped, and no more
        decide, sample, draws = verify._decide, verify.sample_config, []

        def runs_dry_at_fourth_draw(spec, rng):
            draws.append(spec)
            if len(draws) == 4:
                raise RegionExhaustedError("region ran dry")
            return sample(spec, rng)

        def ties_after_first_draw(cfg, oracle):
            cert, pairs = decide(cfg, oracle)
            if len(draws) > 1:
                cert = dataclasses.replace(cert, verdict=VERDICT_SKIPPED, skip_reason="forced")
            return cert, pairs

        monkeypatch.setattr(verify, "sample_config", runs_dry_at_fourth_draw)
        monkeypatch.setattr(verify, "_decide", ties_after_first_draw)
        report = campaign((RegionSpec(k=4, target="AA", bound=12),), 3, rng_seed=6)
        result = report.regions[0]
        assert result.error == "region ran dry"
        assert (result.samples, result.ties_skipped, result.holds) == (3, 2, 1)
        assert result.oracle_samples == 1
        assert len(draws) == 4

    def test_slot_results_do_not_depend_on_slot_order(self):
        # a slot is a function of its inputs alone: slots decided forward and
        # in reverse give equal results, tied, violated and exhausted slots included
        specs = (
            RegionSpec(k=4, target="ADD", bound=4),
            RegionSpec(k=2, target="all-valid", bound=4),
            RegionSpec(k=4, target="AA", bound=2),
        )
        results = []
        for region_index, spec in enumerate(specs):
            args = (spec, region_index)
            forward = [verify._slot(*args, slot, 3, True) for slot in range(8)]
            backward = [verify._slot(*args, slot, 3, True) for slot in reversed(range(8))]
            assert forward == backward[::-1]
            results += forward
        assert any(tied for tied, _cert, _error in results)
        assert any(cert and cert.verdict == VERDICT_VIOLATED for _tied, cert, _error in results)
        assert any(cert is None and error for _tied, cert, error in results)

    def test_slot_results_survive_pickling(self):
        # ``verify --jobs`` will hand slot results from worker processes back
        specs = (
            RegionSpec(k=4, target="ADD", bound=4),
            RegionSpec(k=2, target="all-valid", bound=4),
            RegionSpec(k=4, target="AA", bound=2),
        )
        results = [
            verify._slot(spec, region_index, slot, 3, True)
            for region_index, spec in enumerate(specs)
            for slot in range(8)
        ]
        assert any(tied for tied, _cert, _error in results)
        assert any(cert and cert.verdict == VERDICT_VIOLATED for _tied, cert, _error in results)
        assert any(cert is None and error for _tied, cert, error in results)
        restored = pickle.loads(pickle.dumps(results))
        assert restored == results
        for (_, cert, _), (_, back, _) in zip(results, restored):
            if cert is not None:
                assert back.config._ints == cert.config._ints
                assert back.to_json() == cert.to_json()

    def test_small_k_notes_no_theorem_claim(self):
        report = campaign((RegionSpec(k=2, target="all-valid", bound=6),), 2, rng_seed=3)
        assert report.regions[0].note == "no theorem claim at k<4"

    def test_probability_extremes_with_witnesses(self):
        regions = (RegionSpec(k=4, target="AB", bound=12),)
        report = campaign(regions, 5, rng_seed=4)
        result = report.regions[0]
        assert result.min_probability is not None
        low, low_cfg = result.min_probability
        high, _ = result.max_probability
        assert low <= high <= Fraction(69, 70)
        assert validate(low_cfg).valid

    def test_oracle_off_skips_probabilities(self):
        regions = (RegionSpec(k=4, target="AB", bound=12),)
        report = campaign(regions, 3, rng_seed=4, oracle=False)
        result = report.regions[0]
        assert result.min_probability is None
        assert result.holds == 3

    def test_violation_certificates_carry_traces(self, monkeypatch):
        # some k=2 configs violate by design (every seeding reaches the pairing)
        report = campaign((RegionSpec(k=2, target="all-valid", bound=4),), 3, rng_seed=7)
        result = report.regions[0]
        assert len(result.violations) >= 1
        for cert in result.violations:
            assert cert.verdict == VERDICT_VIOLATED

        monkeypatch.setattr(cases, "_adversarial_plan", pairing_plan(cases._adversarial_plan))
        report = campaign((RegionSpec(k=4, target="ADD", bound=12),), 3, rng_seed=5)
        violations = report.regions[0].violations
        assert len(violations) == 3
        for cert in violations:
            data = cert.to_dict()
            assert data["verdict"] == VERDICT_VIOLATED
            assert data["candidates"] and all("trace" in c for c in data["candidates"])
            assert data["oracle"]["witness_trace"]["steps"]

    def test_holding_samples_build_no_digest(self, monkeypatch):
        # a holding sample makes lean runs only: no strict run, embedding or digest
        digests, strict_runs, embeddings = [], [], []
        strict, embed_points = LineEngine.run_strict, model.embed

        def counted_digest(trace):
            digests.append(trace)
            return trace_digest(trace)

        def counted_strict(self, seeding, cap=lloyd.DEFAULT_CAP):
            strict_runs.append(seeding)
            return strict(self, seeding, cap)

        def counted_embed(cfg):
            embeddings.append(cfg)
            return embed_points(cfg)

        monkeypatch.setattr(lloyd, "trace_digest", counted_digest)
        monkeypatch.setattr(LineEngine, "run_strict", counted_strict)
        monkeypatch.setattr(model, "embed", counted_embed)
        report = campaign(default_regions(4, bound=12)[:3], 4, rng_seed=5)
        assert report.violation_count == 0
        assert sum(r.holds for r in report.regions) == 12
        assert (digests, strict_runs, embeddings) == ([], [], [])

    def test_csv_shape(self):
        report = campaign((RegionSpec(k=4, target="AA", bound=12),), 2, rng_seed=6)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "region,samples,holds,violations,ties,min_probability,max_probability"
        assert lines[1].startswith("k=4:AA,")


class TestDefaultRegions:
    def test_k4_regions(self):
        targets = [r.target for r in default_regions(4)]
        assert targets == [
            "AA", "AA~", "AB", "AB~", "ACA", "ACA~", "ACB", "ACB~",
            "ADA", "ADB", "ADCA", "ADCB", "ADD",
        ]

    def test_k5_regions(self):
        targets = [r.target for r in default_regions(5)]
        assert targets == ["BA", "BB", "BC", "BC~", "BD", "BE", "UNCLASSIFIED"]

    def test_small_k(self):
        assert [r.target for r in default_regions(2)] == ["all-valid"]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8])
    def test_specs_equal_typed_ones(self, k):
        # default_regions builds its specs from the labels cases lists, unparsed
        for bound in (2, 12, 50):
            typed = tuple(RegionSpec(k=k, target=t, bound=bound) for t in cases._region_targets(k))
            regions = default_regions(k, bound)
            assert regions == typed
            assert [r._label for r in regions] == [r._label for r in typed]
            assert [repr(r) for r in regions] == [repr(r) for r in typed]

    @pytest.mark.parametrize("k, bound", [(0, 50), (-1, 50), (4, 1), (5, 2**32), (2, 0)])
    def test_bad_sizes_raise_as_typed_ones(self, k, bound):
        with pytest.raises(ValueError) as typed:
            RegionSpec(k=k, target=cases._region_targets(k)[0], bound=bound)
        with pytest.raises(ValueError) as info:
            default_regions(k, bound)
        assert str(info.value) == str(typed.value)
