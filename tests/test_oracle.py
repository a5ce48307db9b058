"""The exhaustive oracle against the per-seeding loop it replaced.

``survey_seedings`` runs the Lloyd loop once per distinct step-0 partition,
found from a table of pairwise midpoint cuts.  The reference below runs every
seeding from its seeds, in the same lexicographic order.  On every config and
cap the two must agree in every ``SeedingSurvey`` field, ``first_failing``,
``tied`` and ``empty_rule_used`` included.
"""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from kmeans_richness import lloyd
from kmeans_richness.lloyd import DEFAULT_CAP, LineEngine, TieError
from kmeans_richness.model import DistanceConfig, Partition, Seeding, embed, target_partition
from kmeans_richness.verify import (
    RegionSpec,
    SeedingSurvey,
    _derived_rng,
    default_regions,
    sample_config,
    survey_seedings,
)

CAPS = (1, 2, 3, DEFAULT_CAP)


def reference_survey(cfg, cap=DEFAULT_CAP):
    """One strict run per seeding, in lexicographic order."""
    engine = LineEngine(embed(cfg))
    target = target_partition(cfg.k)
    n = 2 * cfg.k
    reached = failed = ties = caps = 0
    first_failing = None
    tied = []
    empty_used = False
    for indices in combinations(range(1, n + 1), cfg.k):
        kind, final, empty_seen, _steps = engine.run_lean(indices, cap)
        empty_used = empty_used or empty_seen
        if kind == "converged":
            if Partition(final) == target:
                reached += 1
            else:
                failed += 1
                if first_failing is None:
                    first_failing = Seeding(indices)
        elif kind == "tie":
            ties += 1
            tied.append(Seeding(indices))
        else:
            caps += 1
    return SeedingSurvey(
        total=comb(n, cfg.k),
        reached_count=reached,
        failed_count=failed,
        tie_count=ties,
        cap_count=caps,
        first_failing=first_failing,
        tied=tuple(tied),
        empty_rule_used=empty_used,
    )


def _acceptance_configs():
    """The first samples of the acceptance campaigns (root seed 0)."""
    regions = {
        4: default_regions(4, bound=50),
        5: tuple(RegionSpec(5, t) for t in ("BA", "BB", "BC", "BD", "BE", "UNCLASSIFIED")),
        6: tuple(RegionSpec(6, t) for t in ("BA", "BB", "BC", "BD", "BE", "UNCLASSIFIED")),
    }
    slots = {4: 3, 5: 2, 6: 1}
    for k, specs in regions.items():
        for region_index, spec in enumerate(specs):
            for slot in range(slots[k]):
                cfg = sample_config(spec, _derived_rng(0, region_index, slot, 0))
                yield pytest.param(cfg, id=f"{spec.name}#{slot}")


@pytest.mark.parametrize("cfg", list(_acceptance_configs()))
def test_acceptance_configs_match_reference(cfg):
    assert survey_seedings(cfg) == reference_survey(cfg)


# Configs on which some run from the seeds keeps a frozen empty-cluster centroid.
EMPTY_RULE_CONFIGS = [
    ((18, 9, 17, 1, 36, 31), (7, 42, 50, 24, 10)),
    ((11, 10, 26, 141), (186, 33, 130)),
    ((1, 2, 3, 2, 2, 2), (5, 10, 10, 9, 3)),
]


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("a, p", EMPTY_RULE_CONFIGS)
def test_empty_rule_configs_match_reference(a, p, cap):
    cfg = DistanceConfig(a, p)
    survey = survey_seedings(cfg, cap)
    assert survey == reference_survey(cfg, cap)
    if cap == DEFAULT_CAP:
        assert survey.empty_rule_used


def test_tied_empty_rule_config_counts():
    survey = survey_seedings(DistanceConfig((1, 2, 3, 2, 2, 2), (5, 10, 10, 9, 3)))
    assert survey.tie_count == 23
    assert len(survey.tied) == 23


@st.composite
def configs(draw, high):
    k = draw(st.integers(1, 7))
    entries = st.integers(1, high)
    a = draw(st.lists(entries, min_size=k, max_size=k))
    p = draw(st.lists(entries, min_size=k - 1, max_size=k - 1))
    return DistanceConfig(tuple(a), tuple(p))


@settings(max_examples=150, deadline=None)
@given(configs(4), st.sampled_from(CAPS))
def test_small_entries_match_reference(cfg, cap):
    # entries in 1..4 put points on many midpoints: ties at step 0 and later
    assert survey_seedings(cfg, cap) == reference_survey(cfg, cap)


@settings(max_examples=150, deadline=None)
@given(configs(50), st.sampled_from(CAPS))
def test_wide_entries_match_reference(cfg, cap):
    assert survey_seedings(cfg, cap) == reference_survey(cfg, cap)


@pytest.mark.parametrize(
    "a, p", [((1, 1, 1, 1, 1), (3, 3, 3, 3)), ((3, 9, 2, 7, 4), (6, 8, 5, 9))]
)
def test_one_run_per_distinct_first_partition(a, p, monkeypatch):
    cfg = DistanceConfig(a, p)
    points = embed(cfg)
    firsts = set()
    for indices in combinations(range(1, 2 * cfg.k + 1), cfg.k):
        try:
            firsts.add(lloyd.assign(points, lloyd.seed_centroids(points, Seeding(indices))))
        except TieError:
            pass
    runs = []
    run_lean = LineEngine.run_lean

    def counted(self, *args):
        runs.append(args)
        return run_lean(self, *args)

    monkeypatch.setattr(LineEngine, "run_lean", counted)
    survey_seedings(cfg)
    assert len(runs) == len(firsts)
