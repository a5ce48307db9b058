"""The exhaustive oracle against the per-seeding loop it replaced.

``survey_seedings`` tallies the seedings below each state once (last seed,
last two step-0 cuts, the cuts of the first Lloyd step's partition fixed so
far, and a tag), over a table of step-0 midpoint cuts, and runs at most one
Lloyd step per distinct partition with no empty block, memoizing each
partition's outcome and depth.  The reference below runs every seeding from
its seeds, in the same lexicographic order.  On every config, at the
iteration cap and at cap 3 (set through ``verify.DEFAULT_CAP``), the two must
agree in every ``SeedingSurvey`` field, ``first_failing``, ``tied`` and
``empty_rule_used`` included.  The step itself, a lookup in a table of block
boundaries, is checked against plain ``Fraction`` arithmetic in
``test_lloyd.py``.
"""

import gc
import random
from itertools import combinations, groupby
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kmeans_richness import lloyd, verify
from kmeans_richness.lloyd import DEFAULT_CAP, EngineInvariantError, LineEngine
from kmeans_richness.model import (
    DistanceConfig,
    Partition,
    Seeding,
    embed,
    mirror,
    target_partition,
)
from kmeans_richness.verify import (
    RegionSpec,
    SeedingSurvey,
    _derived_rng,
    _step0_table,
    _survey,
    default_regions,
    sample_config,
    survey_seedings,
)

# the survey's cap is at least 3: below it, whether a first partition is a
# fixed point would change outcomes
CAPS = (3, DEFAULT_CAP)


def at_cap(cap):
    """The survey counting at iteration cap ``cap`` (a context manager)."""
    return mock.patch.object(verify, "DEFAULT_CAP", cap)


def survey_at(cfg, cap):
    with at_cap(cap):
        return survey_seedings(cfg)


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
        if kind == "converged":  # final is the cuts: point i's block is the cuts <= i
            if Partition(tuple(sum(cut <= i for cut in final) for i in range(n))) == target:
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
# The k=7 one needs ``_survey``'s empty-block tag: a survey that merges the
# states it keeps apart miscounts it at cap 3 and at the default cap.
EMPTY_RULE_CONFIGS = [
    ((18, 9, 17, 1, 36, 31), (7, 42, 50, 24, 10)),
    ((11, 10, 26, 141), (186, 33, 130)),
    ((1, 2, 3, 2, 2, 2), (5, 10, 10, 9, 3)),
    ((50, 50, 3, 1, 3, 3, 50), (50, 50, 1, 50, 50, 2)),
]


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("a, p", EMPTY_RULE_CONFIGS)
def test_empty_rule_configs_match_reference(a, p, cap):
    cfg = DistanceConfig(a, p)
    survey = survey_at(cfg, cap)
    assert survey == reference_survey(cfg, cap)
    if cap == DEFAULT_CAP:
        assert survey.empty_rule_used


def test_tied_empty_rule_config_counts():
    survey = survey_seedings(DistanceConfig((1, 2, 3, 2, 2, 2), (5, 10, 10, 9, 3)))
    assert survey.tie_count == 23
    assert len(survey.tied) == 23


@pytest.mark.parametrize("cap", [0, -1])
def test_cap_below_one_rejected(cap):
    # a lean run shares the strict run's check; the seeding would tie at step 0
    engine = LineEngine(embed(DistanceConfig((2, 2, 1, 1), (1, 1, 1))))
    with pytest.raises(ValueError, match="cap must be >= 1"):
        engine.run_lean((1, 3, 5, 7), cap)


# k = 1, 2 and 3, where the survey's last two seeds are all of a seeding
SMALL_K_CONFIGS = [
    ((3,), ()),  # no cut at all: the one partition is the target
    ((1, 1), (3,)),
    ((1, 3), (1,)),  # ties at step 0, 1 and 2
    ((1, 1, 1), (1, 1)),  # 14 of 20 seedings tie
    ((3, 9, 2), (6, 8)),
    ((1, 1, 3), (3, 3)),
]


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("a, p", SMALL_K_CONFIGS)
def test_small_k_configs_match_reference(a, p, cap):
    cfg = DistanceConfig(a, p)
    assert survey_at(cfg, cap) == reference_survey(cfg, cap)


def test_tie_at_the_first_step_is_capped_at_cap_one():
    # points 0, 1, 2, 5: seeds {2, 3} cut at 2, and the block means 1/2 and
    # 7/2 put point 3 on their midpoint in the first step after the seeds;
    # a lean run at cap 1 stops before that step.  SMALL_K_CONFIGS checks
    # the survey of this config against the reference at every cap it takes
    cfg = DistanceConfig((1, 3), (1,))
    engine = LineEngine(embed(cfg))
    assert engine.run_lean((2, 3)) == ("tie", (1, 3, (0, 1)), False, 2)
    assert engine.run_lean((2, 3), 1) == ("cap-exceeded", None, False, 1)


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
    assert survey_at(cfg, cap) == reference_survey(cfg, cap)


@settings(max_examples=150, deadline=None)
@given(configs(50), st.sampled_from(CAPS))
def test_wide_entries_match_reference(cfg, cap):
    assert survey_at(cfg, cap) == reference_survey(cfg, cap)


def _ones_configs(k, count, seed):
    """Tie-heavy configs: a = (1,)*k, every gap p in 1..3 (valid at any p)."""
    rng = random.Random(seed)
    ps = [tuple(rng.randint(1, 3) for _ in range(k - 1)) for _ in range(count)]
    return [DistanceConfig((1,) * k, p) for p in ps]


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("k", range(1, 8))
def test_tie_heavy_configs_match_reference(k, cap):
    # many prefixes share a state here
    for cfg in _ones_configs(k, 6, seed=20 + k):
        assert survey_at(cfg, cap) == reference_survey(cfg, cap)


def _valid_configs(k, count, seed):
    rng = random.Random(seed)
    while count:
        a = tuple(rng.randint(1, 50) for _ in range(k))
        p = tuple(rng.randint(1, 50) for _ in range(k - 1))
        if all(abs(a[j] - a[j + 1]) < 2 * p[j] for j in range(k - 1)):
            count -= 1
            yield DistanceConfig(a, p)


@pytest.mark.parametrize("cfg", list(_valid_configs(8, 3, seed=8)))
def test_k8_configs_match_reference(cfg):
    assert survey_seedings(cfg) == reference_survey(cfg)


# k=8, the oracle benchmark's k, which the hypothesis sweeps stop short of
K8_CONFIGS = {
    "entries-1..4": ((2, 2, 2, 3, 3, 3, 3, 3), (3, 1, 3, 2, 4, 2, 1)),
    "entries-1..50": ((23, 43, 30, 30, 23, 37, 47, 36), (47, 30, 32, 43, 15, 21, 45)),
    "empty-rule": ((42, 14, 41, 5, 4, 2, 12, 2), (37, 43, 19, 10, 6, 28, 38)),
}


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("a, p", list(K8_CONFIGS.values()), ids=list(K8_CONFIGS))
def test_k8_fixed_configs_match_reference_at_every_cap(a, p, cap):
    cfg = DistanceConfig(a, p)
    survey = survey_at(cfg, cap)
    assert survey == reference_survey(cfg, cap)  # every field, tied order included
    if cap == DEFAULT_CAP:
        assert survey.first_failing is not None
        assert survey.empty_rule_used == (a == K8_CONFIGS["empty-rule"][0])


def test_k8_small_entries_tie_at_the_first_and_the_last_seed():
    # the premise of the entries-1..4 config above: a step-0 tie between the
    # first two seeds ties a whole subtree, one between the last two a last seed
    cfg = DistanceConfig(*K8_CONFIGS["entries-1..4"])
    xs = embed(cfg).positions

    def tie(i, j):  # a point lies on the midpoint of points i and j
        return (xs[i - 1] + xs[j - 1]) / 2 in xs

    tied = survey_seedings(cfg).tied
    assert any(tie(*s.indices[:2]) for s in tied)
    assert any(
        tie(*s.indices[-2:]) and not any(tie(i, j) for i, j in zip(s.indices, s.indices[1:-1]))
        for s in tied
    )


def test_k8_small_entries_share_a_state_with_a_tie_below():
    # the premise that takes the equality tests above through a shared state:
    # two prefixes end at one last seed with one tuple of step-0 cuts, and a
    # seeding below that state ties, so the state's tied seedings are listed
    # under both prefixes
    cfg = DistanceConfig(*K8_CONFIGS["entries-1..4"])
    xs = embed(cfg).positions

    def cut(i, j):  # points left of the midpoint of points i and j; None on a point
        midpoint = (xs[i - 1] + xs[j - 1]) / 2
        return None if midpoint in xs else sum(x < midpoint for x in xs)

    first, second = (1, 2, 3, 4, 6, 7, 8), (1, 2, 3, 5, 6, 7, 8)
    cuts = [tuple(cut(i, j) for i, j in zip(s, s[1:])) for s in (first, second)]
    assert cuts[0] == cuts[1] == (1, 2, 3, 5, 6, 7)
    assert [j for j in range(9, 2 * cfg.k + 1) if cut(8, j) is None] == [15]
    tied = survey_seedings(cfg).tied
    assert Seeding((*first, 15)) in tied and Seeding((*second, 15)) in tied


# k=10, where the per-seeding reference is too slow: the mirrored walk meets
# its states in another order, so the counts of the two must still agree
@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize(
    "cfg", [*_ones_configs(10, 1, seed=10), *_valid_configs(10, 1, seed=10)], ids=["ones", "wide"]
)
def test_k10_survey_matches_its_mirror(cfg, cap):
    survey, mirrored = survey_at(cfg, cap), survey_at(mirror(cfg), cap)
    fields = ("reached_count", "failed_count", "tie_count", "cap_count", "empty_rule_used")
    assert [getattr(survey, f) for f in fields] == [getattr(mirrored, f) for f in fields]


# k=9, past the k=8 configs above: most of its seedings tie
K9_CONFIG = ((4, 3, 3, 2, 2, 1, 3, 4, 1), (3, 1, 4, 2, 4, 4, 2, 2))


def test_k9_config_matches_reference():
    cfg = DistanceConfig(*K9_CONFIG)
    survey = survey_seedings(cfg)
    assert survey == reference_survey(cfg)  # every field, tied order included
    assert (survey.total, survey.tie_count) == (48620, 35573)
    _assert_seedings_valid(survey, cfg.k)


def _assert_seedings_valid(survey, k):
    """The survey's seedings, built unchecked, are ones ``Seeding`` accepts."""
    built = [*survey.tied, *([survey.first_failing] if survey.first_failing else [])]
    for seeding in built:
        assert seeding == Seeding(list(seeding.indices))
        ix = seeding.indices
        assert type(ix) is tuple and all(type(i) is int for i in ix)
        assert len(ix) == k and 1 <= ix[0] and ix[-1] <= 2 * k
        assert all(i < j for i, j in zip(ix, ix[1:]))


# the k=8 configs too: their tied seedings are expanded from shared states
@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("a, p", EMPTY_RULE_CONFIGS + list(K8_CONFIGS.values()))
def test_surveyed_seedings_are_valid_on_empty_rule_configs(a, p, cap):
    cfg = DistanceConfig(a, p)
    _assert_seedings_valid(survey_at(cfg, cap), cfg.k)


@settings(max_examples=100, deadline=None)
@given(configs(4), st.sampled_from(CAPS))
def test_surveyed_seedings_are_valid(cfg, cap):
    _assert_seedings_valid(survey_at(cfg, cap), cfg.k)


@pytest.mark.parametrize(
    "a, p",
    [((3,), ()), EMPTY_RULE_CONFIGS[0], K8_CONFIGS["entries-1..4"]],
    ids=["k1", "k6-empty-rule", "k8"],
)
def test_survey_leaves_no_reference_cycles(a, p):
    # a cycle through the walk's closures would keep the memo alive until the
    # next collection, which shows as peak memory on long runs
    cfg = DistanceConfig(a, p)
    gc.collect()
    gc.disable()
    try:
        survey_seedings(cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "a, p",
    [
        ((22, 38, 19, 23, 9, 27), (27, 37, 42, 35, 24)),  # one run takes 9 steps
        EMPTY_RULE_CONFIGS[0],
    ],
)
def test_caps_around_the_longest_run_match_reference(a, p):
    # a seeding is cap-exceeded iff its run needs more than cap steps; probe
    # both sides of the longest run, and of the longest empty-rule run
    cfg = DistanceConfig(a, p)
    engine = LineEngine(embed(cfg))
    runs = [engine.run_lean(ix) for ix in combinations(range(1, 2 * cfg.k + 1), cfg.k)]
    longest = max(steps for _kind, _final, _empty, steps in runs)
    caps = {longest - 1, longest, longest + 1}
    empty_runs = [steps for _kind, _final, empty, steps in runs if empty]
    if empty_runs:
        caps |= {max(empty_runs) - 1, max(empty_runs), max(empty_runs) + 1}
    for cap in sorted(caps):
        expected = reference_survey(cfg, cap)
        assert survey_at(cfg, cap) == expected
        assert (expected.cap_count > 0) == (cap < longest)


@pytest.mark.parametrize(
    "a, p", [((1, 1, 1, 1, 1), (3, 3, 3, 3)), ((3, 9, 2, 7, 4), (6, 8, 5, 9))]
)
def test_one_step_per_distinct_partition(a, p, monkeypatch):
    cfg = DistanceConfig(a, p)
    points = embed(cfg)
    visited = set()  # as cuts: the points in blocks before each block
    for indices in combinations(range(1, 2 * cfg.k + 1), cfg.k):
        for step in lloyd.run(points, Seeding(indices)).steps:
            if step.partition is not None and step.partition.block_count() == cfg.k:
                labels = step.partition.labels
                visited.add(tuple(sum(b < j for b in labels) for j in range(1, cfg.k)))
    steps = []
    step = LineEngine.step

    def counted(self, cuts):
        steps.append(cuts)
        return step(self, cuts)

    monkeypatch.setattr(LineEngine, "step", counted)
    survey = survey_seedings(cfg)
    assert not survey.empty_rule_used  # no run leaves the memo for a run from the seeds
    # merged states step fewer partitions than the runs visit, and none twice
    assert len(steps) == len(set(steps)) <= len(visited)
    assert set(steps) <= visited


def _table_configs(k, seed):
    """Valid configs with entries 1..50, and tie-heavy ones: a = (1,)*k, p in 1..3."""
    return [*_valid_configs(k, 8, seed), *_ones_configs(k, 8, seed)]


@pytest.mark.parametrize("k", range(1, 9))
def test_step0_table_matches_boundary(k):
    # the survey's one-sweep table against one ``lloyd._boundary`` per seed pair
    n = 2 * k
    tied = 0
    for cfg in _table_configs(k, seed=k):
        xs = LineEngine._of_config(cfg)._xs
        rows, runs = _step0_table(xs)
        assert rows[0] == [()] * (n + 1)
        for i in range(1, n + 1):
            cuts = [lloyd._boundary(xs, xs[i - 1], 1, xs[j - 1], 1) for j in range(i + 1, n + 1)]
            assert rows[i] == [None] * (i + 1) + [None if cut < 0 else (cut,) for cut in cuts]
            tied += sum(cut < 0 for cut in cuts)
            cells = groupby(range(i + 1, n + 1), rows[i].__getitem__)
            assert runs[i] == [(cell, list(js)) for cell, js in cells]
    assert tied or k == 1


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("k", range(2, 6))
def test_probe_outcomes_match_runs_from_the_seeds(k, cap):
    # every seeding with no step-0 tie as a probe; one that ties at step 0 stops the walk
    for cfg in _table_configs(k, seed=10 + k)[::3]:
        engine = LineEngine(embed(cfg))
        target = tuple(range(2, 2 * k, 2))
        probes, expected, step0_tie = [], [], None
        for indices in combinations(range(1, 2 * k + 1), k):
            kind, detail, _empty, _steps = engine.run_lean(indices, cap)
            if kind == "tie" and detail[0] == 0:
                step0_tie = step0_tie or Seeding(indices)
                continue
            if kind == "converged":
                kind = "reached" if detail == target else "failed"
            probes.append(Seeding(indices))
            expected.append(kind)
        with at_cap(cap):
            survey, outcomes = _survey(cfg, probes)
            assert survey == survey_seedings(cfg)
            assert outcomes == expected
            if step0_tie is not None:
                assert _survey(cfg, [*probes, step0_tie]) is None


def test_boundary_rejects_centroids_out_of_order():
    xs = (0, 2, 4, 6)
    assert lloyd._boundary(xs, 2, 1, 4, 1) == 2
    assert lloyd._boundary(xs, 3, 1, 5, 1) == ~2  # the midpoint 4 is a point
    for s1, s2 in ((4, 4), (5, 3)):
        with pytest.raises(EngineInvariantError):
            lloyd._boundary(xs, s1, 1, s2, 1)
