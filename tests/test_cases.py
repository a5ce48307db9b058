"""Case classifier and adversarial seeding constructions."""

import dataclasses
import random

import pytest

from kmeans_richness.cases import (
    UNCLASSIFIED,
    AdversarialPlan,
    CaseLabel,
    ClassificationTieError,
    PlanSemantics,
    UnclassifiedConfigError,
    _adversarial_plan,
    _region_params,
    _region_targets,
    adversarial_plan,
    classify,
)
from kmeans_richness.model import DistanceConfig, Seeding, mirror, mirror_seeding, validate


def cfg4(a, p):
    return DistanceConfig(tuple(a), tuple(p))


def sample_valid(rng, k, bound=12):
    while True:
        cfg = DistanceConfig(
            tuple(rng.randint(1, bound) for _ in range(k)),
            tuple(rng.randint(1, bound) for _ in range(k - 1)),
        )
        if validate(cfg).valid:
            return cfg


class TestCaseLabel:
    def test_str_forms(self):
        assert str(CaseLabel("AA")) == "AA"
        assert str(CaseLabel("AB", mirrored=True)) == "AB~"
        assert str(CaseLabel("BC", param=3)) == "BC(3)"
        assert str(CaseLabel("BC", mirrored=True, param=2)) == "BC(2)~"

    def test_parse_roundtrip(self):
        for text in ("AA", "AB~", "BC(3)", "BD(2)", "BC(1)~", "UNCLASSIFIED"):
            assert str(CaseLabel.parse(text)) == text

    def test_matches(self):
        assert CaseLabel("BC", param=3).matches("BC")
        assert CaseLabel("BC", param=3).matches("BC(3)")
        assert not CaseLabel("BC", param=3).matches("BC(2)")
        assert not CaseLabel("BC", mirrored=True, param=3).matches("BC")
        assert CaseLabel("AA", mirrored=True).matches("AA~")


class TestClassify4:
    def test_ascending_left_end(self):
        assert str(classify(cfg4((1, 3, 3, 1), (2, 2, 2)))) == "AA"

    def test_descending_left_end(self):
        assert str(classify(cfg4((3, 1, 1, 1), (2, 2, 2)))) == "AB"

    def test_pit_left_end_above_threshold(self):
        # 3 > 1 < 4 with 3 > (2*1+4)/3 = 2
        assert str(classify(cfg4((3, 4, 1, 1), (1, 9, 9)))) == "ACB"

    def test_pit_left_end_below_threshold(self):
        # 5 > 4 < 8 with 5 < (2*4+8)/3 = 16/3
        assert str(classify(cfg4((5, 8, 8, 5), (4, 9, 4)))) == "ACA"

    def test_all_peaks(self):
        assert str(classify(cfg4((1, 1, 1, 1), (3, 3, 3)))) == "ADD"

    def test_mirrored_right_end(self):
        # left end is a peak, right end ascending (a4 < p34 < a3)
        assert str(classify(cfg4((1, 2, 5, 1), (4, 9, 3)))) == "AA~"

    def test_middle_cases(self):
        assert str(classify(cfg4((1, 2, 5, 1), (4, 3, 9)))) == "ADA"
        assert str(classify(cfg4((1, 5, 2, 1), (9, 3, 4)))) == "ADB"
        assert str(classify(cfg4((1, 5, 4, 1), (9, 2, 9)))) == "ADCA"  # 5 > (4+4)/3
        assert str(classify(cfg4((1, 6, 9, 2), (8, 5, 12)))) == "ADCB"  # 6 < (10+9)/3

    def test_tie_in_predicate(self):
        with pytest.raises(ClassificationTieError):
            classify(cfg4((2, 2, 3, 1), (2, 2, 2)))  # a1 == p12

    def test_threshold_tie(self):
        # pit left end with a1 == (2*p12 + a2)/3 exactly: a=(3,5,...), p12=2
        with pytest.raises(ClassificationTieError):
            classify(cfg4((3, 5, 5, 3), (2, 9, 9)))

    def test_requires_validity(self):
        with pytest.raises(ValueError):
            classify(cfg4((5, 1, 1, 1), (1, 1, 1)))

    def test_every_valid_tie_free_config_is_classified(self):
        rng = random.Random(21)
        seen = set()
        for _ in range(2000):
            cfg = sample_valid(rng, 4)
            try:
                label = classify(cfg)
            except ClassificationTieError:
                continue
            assert label.tag != UNCLASSIFIED
            seen.add(str(label))
        # the sample should exercise a good spread of the region map
        assert len(seen) >= 9

    def test_end_labels_mirror_with_flag_toggled(self):
        # holds when exactly one end matches; with two non-peak ends both
        # orientations classify on their own left end
        rng = random.Random(22)
        checked = 0
        for _ in range(800):
            cfg = sample_valid(rng, 4)
            try:
                label = classify(cfg)
            except ClassificationTieError:
                continue
            if label.tag not in ("AA", "AB", "ACA", "ACB"):
                continue
            a1, a2, a3, a4 = cfg.a
            p12, _p23, p34 = cfg.p
            if not label.mirrored and not (a4 < p34 > a3):
                continue  # right end matches too; precedence wins on both sides
            flipped = classify(mirror(cfg))
            assert flipped.tag == label.tag
            assert flipped.mirrored != label.mirrored
            checked += 1
        assert checked > 100

    def test_middle_labels_swap_under_mirror(self):
        assert str(classify(mirror(cfg4((1, 2, 5, 1), (4, 3, 9))))) == "ADB"
        assert str(classify(mirror(cfg4((1, 1, 1, 1), (3, 3, 3))))) == "ADD"


class TestPlan4:
    def test_seeding_table(self):
        expected = {
            "AA": (2, 4, 5, 7),
            "AB": (1, 3, 5, 7),
            "ACA": (2, 4, 5, 7),
            "ACB": (1, 3, 5, 7),
            "ADA": (2, 4, 6, 7),
            "ADB": (2, 3, 5, 7),
            "ADCA": (2, 3, 5, 7),
            "ADCB": (2, 4, 6, 7),
        }
        configs = {
            "AA": cfg4((1, 3, 3, 1), (2, 2, 2)),
            "AB": cfg4((3, 1, 1, 1), (2, 2, 2)),
            "ACA": cfg4((5, 8, 8, 5), (4, 9, 4)),
            "ACB": cfg4((3, 4, 1, 1), (1, 9, 9)),
            "ADA": cfg4((1, 2, 5, 1), (4, 3, 9)),
            "ADB": cfg4((1, 5, 2, 1), (9, 3, 4)),
            "ADCA": cfg4((1, 5, 4, 1), (9, 2, 9)),
            "ADCB": cfg4((1, 6, 9, 2), (8, 5, 12)),
        }
        for tag, cfg in configs.items():
            plan = adversarial_plan(cfg)
            assert str(plan.label) == tag
            assert plan.semantics is PlanSemantics.ALL_MUST_FAIL
            assert len(plan.candidates) == 1
            assert plan.candidates[0].indices == expected[tag]

    def test_add_candidates(self):
        plan = adversarial_plan(cfg4((1, 1, 1, 1), (3, 3, 3)))
        assert plan.semantics is PlanSemantics.ANY_MUST_FAIL
        assert plan.names == ("S1", "S2", "S7", "S7'")
        assert [s.indices for s in plan.candidates] == [
            (2, 5, 7, 8),
            (1, 2, 4, 7),
            (4, 6, 7, 8),
            (1, 2, 3, 5),
        ]

    def test_mirrored_labels_emit_mirrored_seedings(self):
        cfg = cfg4((1, 2, 5, 1), (4, 9, 3))  # AA~
        plan = adversarial_plan(cfg)
        assert str(plan.label) == "AA~"
        assert plan.candidates[0] == mirror_seeding(Seeding((2, 4, 5, 7)), 4)

        cfg_ab = cfg4((1, 1, 1, 3), (2, 2, 2))  # mirror of the AB example
        plan_ab = adversarial_plan(cfg_ab)
        assert str(plan_ab.label) == "AB~"
        assert plan_ab.candidates[0].indices == (2, 4, 6, 8)

    def test_emitted_seedings_are_k_subsets(self):
        rng = random.Random(23)
        for _ in range(500):
            cfg = sample_valid(rng, 4)
            try:
                plan = adversarial_plan(cfg)
            except ClassificationTieError:
                continue
            for seeding in plan.candidates:
                assert len(seeding.indices) == 4
                assert all(1 <= i <= 8 for i in seeding.indices)


class TestClassifyK:
    def test_ba(self):
        assert str(classify(DistanceConfig((1, 3, 1, 1, 1), (2, 2, 2, 2)))) == "BA"

    def test_bb(self):
        assert str(classify(DistanceConfig((3, 1, 1, 1, 1), (2, 2, 2, 2)))) == "BB"

    def test_bd_with_longest_pair_index(self):
        assert str(classify(DistanceConfig((5, 4, 4, 4, 4), (1, 1, 1, 1)))) == "BD(1)"

    def test_bd_tie_on_longest(self):
        with pytest.raises(ClassificationTieError):
            classify(DistanceConfig((5, 5, 4, 4, 4), (1, 1, 1, 1)))

    def test_be(self):
        assert str(classify(DistanceConfig((1, 1, 1, 1, 1), (3, 3, 3, 3)))) == "BE"

    def test_bc_inner_ascending_gap(self):
        # gap 1 is a peak, gap 2 ascending: 1 < 4 < 5
        cfg = DistanceConfig((1, 1, 5, 5, 5), (3, 4, 9, 9))
        assert str(classify(cfg)) == "BC(2)"

    def test_bc_mirrored_from_descending_gap(self):
        # mirror of the BC(2) example: descending gap at position 3 of k=5
        cfg = DistanceConfig((5, 5, 5, 1, 1), (9, 9, 4, 3))
        assert str(classify(cfg)) == "BC(2)~"

    def test_unclassified_mixed(self):
        cfg = DistanceConfig((3, 3, 1, 1, 1), (1, 4, 2, 2))
        assert str(classify(cfg)) == UNCLASSIFIED


class TestPlanK:
    def test_ba_seeding(self):
        cfg = DistanceConfig((1, 3, 1, 1, 1), (2, 2, 2, 2))
        plan = adversarial_plan(cfg)
        assert plan.candidates[0].indices == (2, 4, 5, 7, 9)
        assert plan.semantics is PlanSemantics.ALL_MUST_FAIL

    def test_bb_seeding(self):
        cfg = DistanceConfig((3, 1, 1, 1, 1), (2, 2, 2, 2))
        assert adversarial_plan(cfg).candidates[0].indices == (1, 3, 5, 7, 9)

    def test_bc_seeding(self):
        cfg = DistanceConfig((1, 1, 5, 5, 5), (3, 4, 9, 9))  # BC(2)
        assert adversarial_plan(cfg).candidates[0].indices == (2, 4, 6, 7, 9)

    def test_bc_mirrored_seeding(self):
        cfg = DistanceConfig((5, 5, 5, 1, 1), (9, 9, 4, 3))  # BC(2)~
        base = adversarial_plan(
            DistanceConfig((1, 1, 5, 5, 5), (3, 4, 9, 9))
        ).candidates[0]
        assert adversarial_plan(cfg).candidates[0] == mirror_seeding(base, 5)

    def test_bd_seeding(self):
        cfg = DistanceConfig((5, 4, 4, 4, 4), (1, 1, 1, 1))  # BD(1)
        assert adversarial_plan(cfg).candidates[0].indices == (1, 2, 4, 6, 8)
        cfg3 = DistanceConfig((4, 4, 5, 4, 4), (1, 1, 1, 1))  # BD(3)
        assert adversarial_plan(cfg3).candidates[0].indices == (1, 3, 5, 6, 8)

    def test_be_candidates_extend_the_k4_set(self):
        cfg = DistanceConfig((1, 1, 1, 1, 1), (3, 3, 3, 3))
        plan = adversarial_plan(cfg)
        assert plan.semantics is PlanSemantics.ANY_MUST_FAIL
        assert [s.indices for s in plan.candidates] == [
            (2, 5, 7, 8, 9),
            (1, 2, 4, 7, 9),
            (4, 6, 7, 8, 9),
            (1, 2, 3, 5, 9),
        ]

    def test_be_candidates_k6(self):
        cfg = DistanceConfig((1, 1, 1, 1, 1, 1), (3, 3, 3, 3, 3))
        plan = adversarial_plan(cfg)
        assert plan.candidates[0].indices == (2, 5, 7, 8, 9, 11)

    def test_unclassified_raises(self):
        cfg = DistanceConfig((3, 3, 1, 1, 1), (1, 4, 2, 2))
        with pytest.raises(UnclassifiedConfigError):
            adversarial_plan(cfg)

    def test_emitted_seedings_are_k_subsets(self):
        rng = random.Random(24)
        for _ in range(500):
            k = rng.randint(5, 6)
            cfg = sample_valid(rng, k)
            try:
                plan = adversarial_plan(cfg)
            except (ClassificationTieError, UnclassifiedConfigError):
                continue
            for seeding in plan.candidates:
                assert len(seeding.indices) == k
                assert all(1 <= i <= 2 * k for i in seeding.indices)

    @pytest.mark.parametrize("k", [5, 6])
    def test_plan_built_once_per_label(self, k):
        # every label and param a k>4 region can name, as the sampler enumerates them
        for target in _region_targets(k):
            if target == UNCLASSIFIED:
                continue
            parsed = CaseLabel.parse(target)
            for param in _region_params(k, parsed) or (None,):
                label = dataclasses.replace(parsed, param=param)
                plan = _adversarial_plan(label, k)
                assert _adversarial_plan(label, k) is plan
                assert plan == _adversarial_plan.__wrapped__(label, k)


class TestDispatch:
    def test_classify_dispatch(self):
        assert str(classify(DistanceConfig((1, 3, 3, 1), (2, 2, 2)))) == "AA"
        assert str(classify(DistanceConfig((1, 3, 1, 1, 1), (2, 2, 2, 2)))) == "BA"
        with pytest.raises(ValueError):
            classify(DistanceConfig((1, 1), (10,)))

    def test_plan_dispatch(self):
        assert adversarial_plan(DistanceConfig((1, 3, 3, 1), (2, 2, 2))).label.tag == "AA"
        with pytest.raises(ValueError):
            adversarial_plan(DistanceConfig((1, 1), (10,)))

    def test_plan_needs_a_name_slot_per_candidate_and_a_candidate(self):
        label, seeding = CaseLabel("AA"), Seeding((2, 4, 5, 7))
        with pytest.raises(ValueError, match="one name slot per candidate"):
            AdversarialPlan(label, (seeding,), (), PlanSemantics.ALL_MUST_FAIL)
        with pytest.raises(ValueError, match="plan needs at least one candidate"):
            AdversarialPlan(label, (), (), PlanSemantics.ALL_MUST_FAIL)
