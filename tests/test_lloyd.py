"""Lloyd iteration: assignment, updates, the table step, traces, invariants."""

import inspect
import itertools
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kmeans_richness import lloyd
from kmeans_richness.lloyd import (
    DEFAULT_CAP,
    BranchLimitError,
    Centroids,
    Converged,
    IterationCapExceeded,
    LloydStep,
    LloydTrace,
    TieEncountered,
    TieError,
    TiePolicy,
    assign,
    cost,
    is_fixed_point,
    run,
    seed_centroids,
    trace_digest,
    trace_to_dict,
    update,
)
from kmeans_richness.model import (
    DistanceConfig,
    Partition,
    PointSet,
    Seeding,
    embed,
    mirror,
    mirror_seeding,
    target_partition,
    validate,
)


def random_config(rng, k=None, bound=12):
    k = k or rng.randint(2, 6)
    while True:
        cfg = DistanceConfig(
            tuple(rng.randint(1, bound) for _ in range(k)),
            tuple(rng.randint(1, bound) for _ in range(k - 1)),
        )
        if validate(cfg).valid:
            return cfg


def random_seeding(rng, k):
    return Seeding(tuple(rng.sample(range(1, 2 * k + 1), k)))


def tie_prone_config(rng, k):
    """Any config (valid or not) with entries in 1..4, where ties are common."""
    return DistanceConfig(
        tuple(rng.randint(1, 4) for _ in range(k)),
        tuple(rng.randint(1, 4) for _ in range(k - 1)),
    )


def branch_assign(points, centroids):
    """Every labeling over all nearest-distance tie resolutions, lowest cluster
    id first: the label-space definition of a branch-mode assignment."""
    choices = []
    for x in points.positions:
        dists = [abs(x - c) for c in centroids.values]
        best = min(dists)
        choices.append([j for j, d in enumerate(dists) if d == best])
    return [Partition(labels) for labels in itertools.product(*choices)]


def reference_branch(points, seeding, cap=DEFAULT_CAP):
    """Branch mode in label space, on ``branch_assign`` and the public update.

    Every tie resolution is followed, lowest cluster id first; a run stops
    when a labeling repeats or at the cap, and runs that walked the same
    partition sequence to the same kind of end are kept once.
    """
    results = []

    def explore(cents, steps, prev, depth):
        if depth == cap:
            results.append(LloydTrace(seeding, tuple(steps), IterationCapExceeded(cap)))
            return
        for part in branch_assign(points, cents):
            if len(results) >= lloyd.DEFAULT_BRANCH_LIMIT:
                raise BranchLimitError("reference branch budget")
            branch = [*steps, LloydStep(cents, part)]
            if part.labels == prev:
                results.append(LloydTrace(seeding, tuple(branch), Converged(part)))
                continue
            explore(update(points, part, cents), branch, part.labels, depth + 1)

    explore(seed_centroids(points, seeding), [], None, 0)
    unique, seen = [], set()
    for trace in results:
        key = (trace.partition_sequence(), trace.outcome.kind)
        if key not in seen:
            seen.add(key)
            unique.append(trace)
    return unique


def branch_digests(traces):
    return [trace_digest(trace) for trace in traces]


def reference_is_fixed_point(points, partition):
    """One public assign/update round reproduces the partition; a tie is not fixed."""
    k = max(partition.labels) + 1
    try:
        return assign(points, update(points, partition, Centroids((0,) * k))) == partition
    except TieError:
        return False


def random_cut_labels(rng, n, blocks):
    """Labels of a random contiguous partition into ``blocks`` blocks."""
    cuts = sorted(rng.sample(range(1, n), blocks - 1))
    labels = []
    for j, (lo, hi) in enumerate(zip((0, *cuts), (*cuts, n))):
        labels += [j] * (hi - lo)
    return labels


def reference_step(positions, cuts):
    """One Lloyd step in plain Fractions: the block means, each adjacent
    midpoint, and how many points lie strictly left of it; None on a tie
    anywhere, else False when a block of the next partition is empty."""
    bounds = (0, *cuts, len(positions))
    means = [sum(positions[lo:hi], Fraction(0)) / (hi - lo) for lo, hi in zip(bounds, bounds[1:])]
    nxt = []
    for left, right in zip(means, means[1:]):
        midpoint = (left + right) / 2
        if midpoint in positions:
            return None
        nxt.append(sum(1 for x in positions if x < midpoint))
    bounds = (0, *nxt, len(positions))
    if any(hi <= lo for lo, hi in zip(bounds, bounds[1:])):
        return False
    return tuple(nxt)


@st.composite
def step_configs(draw):
    k = draw(st.integers(2, 6))
    entries = st.integers(1, draw(st.sampled_from([4, 50])))  # 1..4: ties are common
    a = draw(st.lists(entries, min_size=k, max_size=k))
    p = draw(st.lists(entries, min_size=k - 1, max_size=k - 1))
    return DistanceConfig(tuple(a), tuple(p))


class TestCentroids:
    def test_values_come_back_as_fractions(self):
        # str() and == hide the type, so check it directly
        cents = Centroids((1, 2.5, Fraction(7, 3)))
        assert cents.values == (1, Fraction(5, 2), Fraction(7, 3))
        assert all(type(v) is Fraction for v in cents.values)

    def test_empty_or_mismatched_mask_rejected(self):
        with pytest.raises(ValueError, match="need at least one centroid"):
            Centroids(())
        with pytest.raises(ValueError, match="empty mask length mismatch"):
            Centroids((1, 2), (False,))


class TestAssign:
    def test_nearest_labels(self):
        points = PointSet((0, 1, 3, 6, 8, 11, 13, 14))
        cents = Centroids((1, 6, 8, 13))
        assert assign(points, cents).labels == (0, 0, 0, 1, 2, 3, 3, 3)

    def test_tie_reported_with_point_and_clusters(self):
        points = PointSet((0, 1, 2))
        with pytest.raises(TieError) as info:
            assign(points, Centroids((0, 2)))
        assert info.value.point_index == 2
        assert info.value.clusters == (0, 1)

    def test_points_at_own_centroids(self):
        assert assign(PointSet((0, 1)), Centroids((0, 1))).labels == (0, 1)

    def test_empty_centroids_still_compete(self):
        cents = Centroids((0, 10), empty=(False, True))
        assert assign(PointSet((1, 9)), cents).labels == (0, 1)

    def test_branch_mode_enumerates_resolutions(self):
        points = PointSet((0, 1, 2))
        branches = branch_assign(points, Centroids((0, 2)))
        assert [b.labels for b in branches] == [(0, 0, 1), (0, 1, 1)]

    def test_branch_mode_without_ties_is_single(self):
        points = PointSet((0, 1, 3, 6, 8, 11, 13, 14))
        branches = branch_assign(points, Centroids((1, 6, 8, 13)))
        assert len(branches) == 1
        assert branches[0].labels == (0, 0, 0, 1, 2, 3, 3, 3)


class TestUpdate:
    def test_exact_mean(self):
        points = PointSet((0, 1, 3, 6))
        part = Partition((0, 0, 0, 1))
        cents = update(points, part, Centroids((0, 6)))
        assert cents.values == (Fraction(4, 3), 6)
        assert cents.empty == (False, False)

    def test_singleton(self):
        cents = update(PointSet((6,)), Partition((0,)), Centroids((6,)))
        assert cents.values == (6,)

    def test_empty_cluster_keeps_value_and_is_flagged(self):
        points = PointSet((0, 1))
        cents = update(points, Partition((0, 0)), Centroids((0, 8)))
        assert cents.values == (Fraction(1, 2), 8)
        assert cents.empty == (False, True)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            update(PointSet((0, 1)), Partition((0, 2)), Centroids((0, 1)))

    def test_partition_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="partition covers 3 points, point set has 2"):
            update(PointSet((0, 1)), Partition((0, 0, 1)), Centroids((0, 1)))


class TestRun:
    def test_aa_example_trace(self):
        points = embed(DistanceConfig((1, 3, 3, 1), (2, 2, 2)))
        trace = run(points, Seeding((2, 4, 5, 7)))
        assert isinstance(trace.outcome, Converged)
        final = trace.final_partition
        assert final.blocks() == ((1, 2, 3), (4,), (5,), (6, 7, 8))
        assert final != target_partition(4)
        assert trace.steps[-1].centroids.values == (Fraction(4, 3), 6, 8, Fraction(38, 3))

    def test_two_pair_instance_converges_to_target_in_one_assignment(self):
        points = embed(DistanceConfig((1, 1), (10,)))
        trace = run(points, Seeding((1, 3)))
        assert trace.converged
        assert trace.final_partition == target_partition(2)
        assert trace.steps[0].partition == target_partition(2)
        assert len(trace.steps) == 2

    def test_uniform_peaks_s1_trace(self):
        points = embed(DistanceConfig((1, 1, 1, 1), (3, 3, 3)))
        trace = run(points, Seeding((2, 5, 7, 8)))
        assert trace.converged
        assert trace.final_partition.blocks() == ((1, 2, 3), (4, 5, 6), (7,), (8,))
        assert trace.steps[-1].centroids.values == (Fraction(5, 3), Fraction(22, 3), 12, 13)

    def test_step_zero_centroids_are_seed_positions(self):
        points = embed(DistanceConfig((1, 3, 3, 1), (2, 2, 2)))
        seeding = Seeding((2, 4, 5, 7))
        trace = run(points, seeding)
        assert trace.steps[0].centroids == seed_centroids(points, seeding)

    def test_converged_trace_repeats_final_partition(self):
        points = embed(DistanceConfig((1, 3, 3, 1), (2, 2, 2)))
        trace = run(points, Seeding((1, 3, 5, 7)))
        assert trace.steps[-1].partition == trace.steps[-2].partition

    def test_tie_outcome_records_offender(self):
        # centroids 0 and 4: the point at 2 is equidistant
        trace = run(PointSet((0, 2, 4)), Seeding((1, 3)))
        assert isinstance(trace.outcome, TieEncountered)
        assert trace.outcome.step_index == 0
        assert trace.outcome.point_index == 2
        assert trace.outcome.clusters == (0, 1)
        assert len(trace.steps) == 1
        assert trace.steps[0].partition is None

    def test_cap_exceeded(self):
        points = embed(DistanceConfig((1, 3, 3, 1), (2, 2, 2)))
        trace = run(points, Seeding((2, 4, 5, 7)), cap=1)
        assert isinstance(trace.outcome, IterationCapExceeded)
        assert trace.outcome.cap == 1

    def test_cap_must_be_positive(self):
        points = embed(DistanceConfig((1, 1), (10,)))
        with pytest.raises(ValueError):
            run(points, Seeding((1, 3)), cap=0)

    def test_branch_cap_must_be_positive(self):
        points = embed(DistanceConfig((1, 1), (10,)))
        with pytest.raises(ValueError, match="cap must be >= 1"):
            run(points, Seeding((1, 3)), TiePolicy.BRANCH, cap=0)

    def test_seed_index_out_of_range(self):
        with pytest.raises(ValueError):
            run(PointSet((0, 1)), Seeding((1, 3)))

    def test_both_modes_report_a_bad_seed_before_a_bad_cap(self):
        points = embed(DistanceConfig((1, 1), (10,)))
        errors = []
        for policy in (TiePolicy.STRICT, TiePolicy.BRANCH):
            with pytest.raises(ValueError) as exc:
                run(points, Seeding((1, 9)), policy, cap=0)
            errors.append(str(exc.value))
        assert errors == ["seed index 9 out of range 1..4"] * 2

    def test_seed_centroids_index_out_of_range(self):
        with pytest.raises(ValueError, match="seed index 3 out of range 1..2"):
            seed_centroids(PointSet((0, 1)), Seeding((1, 3)))

    def test_branch_run_on_tie_free_matches_strict(self):
        points = embed(DistanceConfig((1, 3, 3, 1), (2, 2, 2)))
        seeding = Seeding((2, 4, 5, 7))
        strict = run(points, seeding)
        branches = run(points, seeding, TiePolicy.BRANCH)
        assert len(branches) == 1
        assert branches[0].partition_sequence() == strict.partition_sequence()
        assert branches[0].outcome == strict.outcome

    def test_branch_run_explores_tie(self):
        branches = run(PointSet((0, 2, 4)), Seeding((1, 3)), TiePolicy.BRANCH)
        assert len(branches) >= 2
        assert all(b.converged for b in branches)
        sequences = {b.partition_sequence() for b in branches}
        assert len(sequences) == len(branches)


class TestStep:
    """``LineEngine.step``, the survey's table step, against plain Fractions."""

    @settings(max_examples=100, deadline=None)
    @given(step_configs(), st.randoms(use_true_random=False))
    def test_table_step_matches_fraction_reference(self, cfg, rnd):
        points = embed(cfg)
        n = points.n
        every = list(itertools.combinations(range(1, n), cfg.k - 1))  # no empty block
        expected = {cuts: reference_step(points.positions, cuts) for cuts in every}
        engine = lloyd.LineEngine(points)
        shuffled = every[:]
        rnd.shuffle(shuffled)
        # the second pass reads a table the first one filled, in another order
        for order in (every, shuffled):
            assert {cuts: engine.step(cuts) for cuts in order} == expected

    @pytest.mark.parametrize(
        "a, p",
        [
            ((1, 1, 1, 1), (3, 1, 4)),
            ((1, 1, 1, 1, 1), (4, 1, 4, 1)),
            ((1, 2, 3, 2, 2, 2), (5, 10, 10, 9, 3)),  # its survey takes the empty-cluster rule
            ((1, 1, 1, 1, 1, 1), (3, 1, 4, 1, 3)),
        ],
    )
    def test_every_partition_matches_reference(self, a, p):
        # every partition with no empty block: next ones with a tie, with an
        # empty block and with neither all occur
        points = embed(DistanceConfig(a, p))
        engine = lloyd.LineEngine(points)
        every = itertools.combinations(range(1, points.n), len(a) - 1)
        steps = {cuts: engine.step(cuts) for cuts in every}
        assert steps == {cuts: reference_step(points.positions, cuts) for cuts in steps}
        assert {type(nxt) for nxt in steps.values()} == {tuple, bool, type(None)}

    def test_tie_after_an_empty_block_wins(self):
        # points 0, 1, 4, 5, 6, 7, 11, 12 in blocks {0} {1, 4} {5} {6, 7, 11, 12}:
        # the means 0, 5/2, 5, 9 put the first two midpoints, 5/4 and 15/4,
        # between points 1 and 4, which empties block 1, and the third, 7, on
        # point 6
        points = embed(DistanceConfig((1, 1, 1, 1), (3, 1, 4)))
        assert points.positions == (0, 1, 4, 5, 6, 7, 11, 12)
        assert reference_step(points.positions, (1, 3, 4)) is None
        assert lloyd.LineEngine(points).step((1, 3, 4)) is None


class TestIsFixedPoint:
    def test_partition_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="partition covers 2 points, point set has 8"):
            is_fixed_point(embed(DistanceConfig((1, 1, 1, 1), (10, 10, 10))), Partition((0, 1)))

    def test_well_separated_target_is_fixed(self):
        cfg = DistanceConfig((1, 1, 1, 1), (10, 10, 10))
        assert is_fixed_point(embed(cfg), target_partition(4))

    def test_invalid_config_target_not_fixed(self):
        cfg = DistanceConfig((5, 1, 1, 1), (1, 1, 1))
        assert not is_fixed_point(embed(cfg), target_partition(4))

    def test_tied_boundary_not_fixed(self):
        # |a1 - a2| == 2*p12 puts the second point exactly on the midpoint
        cfg = DistanceConfig((3, 1, 1, 1), (1, 1, 1))
        assert not is_fixed_point(embed(cfg), target_partition(4))

    def test_empty_blocks_rejected(self):
        with pytest.raises(ValueError):
            is_fixed_point(PointSet((0, 1)), Partition((0, 2)))

    def test_matches_validity_on_sample(self):
        rng = random.Random(5)
        for _ in range(300):
            k = rng.randint(2, 6)
            cfg = DistanceConfig(
                tuple(rng.randint(1, 8) for _ in range(k)),
                tuple(rng.randint(1, 8) for _ in range(k - 1)),
            )
            assert is_fixed_point(embed(cfg), target_partition(k)) == validate(cfg).valid

    def test_matches_label_space_definition(self):
        # three kinds of random partition: contiguous with shuffled ids,
        # non-contiguous, and contiguous on tie-prone configs
        rng = random.Random(6)
        fixed = tied = scattered = 0
        for kind in ("shuffled", "scattered", "tie-prone"):
            for _ in range(400):
                k = rng.randint(1, 6)
                if kind == "tie-prone":
                    cfg = tie_prone_config(rng, k)
                else:
                    cfg = DistanceConfig(
                        tuple(rng.randint(1, 12) for _ in range(k)),
                        tuple(rng.randint(1, 12) for _ in range(k - 1)),
                    )
                points = embed(cfg)
                n = points.n
                blocks = rng.randint(1, n)
                if kind == "scattered":
                    labels = [*range(blocks), *(rng.randrange(blocks) for _ in range(n - blocks))]
                    rng.shuffle(labels)
                    if Partition(tuple(labels)).is_contiguous():
                        continue
                    scattered += 1
                else:
                    ids = list(range(blocks))
                    rng.shuffle(ids)
                    labels = [ids[j] for j in random_cut_labels(rng, n, blocks)]
                partition = Partition(tuple(labels))
                expected = reference_is_fixed_point(points, partition)
                assert is_fixed_point(points, partition) == expected
                fixed += expected and 1 < blocks < n  # one block or singletons: always fixed
                if kind == "tie-prone" and not expected:
                    try:
                        assign(points, update(points, partition, Centroids((0,) * blocks)))
                    except TieError:
                        tied += 1
        assert fixed > 100 and tied > 20 and scattered > 200


class TestBranchReference:
    """``run_branch`` on the cut-space core against the label-space reference."""

    def test_tie_prone_configs_every_cap(self):
        rng = random.Random(18)
        multi = 0
        for _ in range(300):
            k = rng.randint(1, 6)
            points = embed(tie_prone_config(rng, k))
            seeding = random_seeding(rng, k)
            engine = lloyd.LineEngine(points)
            for cap in (1, 2, 3, DEFAULT_CAP):
                traces = run(points, seeding, TiePolicy.BRANCH, cap)
                assert branch_digests(traces) == branch_digests(
                    reference_branch(points, seeding, cap)
                )
                multi += len(traces) > 1
                # the lean run's (kind, detail) is the strict outcome: final
                # cuts (points in blocks 0..j, per j < k-1; an empty block
                # repeats a cut), the tie's (step, point, clusters), or None
                lean = engine.run_lean(seeding.indices, cap)
                outcome = engine.run_strict(seeding, cap).outcome
                detail = None
                if isinstance(outcome, Converged):
                    labels = outcome.final.labels
                    detail = tuple(sum(label <= j for label in labels) for j in range(k - 1))
                elif isinstance(outcome, TieEncountered):
                    detail = (outcome.step_index, outcome.point_index, outcome.clusters)
                assert len(lean) == 4
                assert lean[:2] == (outcome.kind, detail)
        assert multi > 200

    def test_empty_cluster_config_every_seeding(self):
        points = embed(DistanceConfig((18, 9, 17, 1, 36, 31), (7, 42, 50, 24, 10)))
        frozen = 0
        for indices in itertools.combinations(range(1, 13), 6):
            seeding = Seeding(indices)
            traces = run(points, seeding, TiePolicy.BRANCH)
            assert branch_digests(traces) == branch_digests(reference_branch(points, seeding))
            frozen += any(trace.used_empty_cluster_rule() for trace in traces)
        assert frozen

    @pytest.mark.parametrize("limit", [1, 2, 3])
    def test_same_branch_limit_error(self, monkeypatch, limit):
        monkeypatch.setattr(lloyd, "DEFAULT_BRANCH_LIMIT", limit)
        rng = random.Random(19 + limit)
        raised = 0
        for _ in range(100):
            k = rng.randint(2, 6)
            points = embed(tie_prone_config(rng, k))
            seeding = random_seeding(rng, k)
            try:
                expected = branch_digests(reference_branch(points, seeding))
            except BranchLimitError:
                with pytest.raises(BranchLimitError):
                    run(points, seeding, TiePolicy.BRANCH)
                raised += 1
                continue
            assert branch_digests(run(points, seeding, TiePolicy.BRANCH)) == expected
        assert 0 < raised < 100

    def test_many_ties_in_one_step_reach_the_limit_lazily(self, monkeypatch):
        # seeds on alternate points of 0..59: all 29 midpoints lie on points at step 0,
        # so that step alone has 2**29 resolutions
        drawn = 0

        def counted_product(*options):
            nonlocal drawn
            for cuts in itertools.product(*options):
                drawn += 1
                assert drawn <= 2 * lloyd.DEFAULT_BRANCH_LIMIT, "resolutions drawn past the limit"
                yield cuts

        monkeypatch.setattr(lloyd, "product", counted_product)
        with pytest.raises(BranchLimitError):
            run(PointSet(tuple(range(60))), Seeding(tuple(range(1, 60, 2))), TiePolicy.BRANCH)

    def test_long_run_needs_no_recursion(self):
        # gaps 6i+4: the strict run converges after 131 tie-free steps
        points = PointSet(tuple(3 * i * i + i for i in range(400)))
        seeding = Seeding(tuple(range(1, 201)))
        strict = run(points, seeding)
        assert strict.converged and len(strict.steps) == 131
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            traces = run(points, seeding, TiePolicy.BRANCH)
        finally:
            sys.setrecursionlimit(limit)
        assert traces == (strict,)


class TestCost:
    def test_pair_block(self):
        assert cost(PointSet((0, 1)), Partition((0, 0))) == Fraction(1, 2)

    def test_singletons_cost_zero(self):
        assert cost(PointSet((0, 5, 11)), Partition((0, 1, 2))) == 0

    def test_mixed_blocks(self):
        assert cost(PointSet((0, 1, 3, 6)), Partition((0, 0, 0, 1))) == Fraction(14, 3)

    def test_partition_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="partition covers 1 points, point set has 2"):
            cost(PointSet((0, 1)), Partition((0,)))


class TestTraceInvariants:
    """Contiguity, cost monotonicity, termination, equivariances."""

    def _strict_traces(self, count, seed):
        rng = random.Random(seed)
        for _ in range(count):
            cfg = random_config(rng)
            points = embed(cfg)
            seeding = random_seeding(rng, cfg.k)
            yield cfg, points, seeding, run(points, seeding)

    def test_contiguity_and_cost_monotone(self):
        for _cfg, points, _seeding, trace in self._strict_traces(200, seed=11):
            previous = None
            previous_cost = None
            for step in trace.steps:
                if step.partition is None:
                    continue
                assert step.partition.is_contiguous()
                c = cost(points, step.partition)
                if previous_cost is not None:
                    assert c <= previous_cost
                    if step.partition != previous:
                        assert c < previous_cost
                previous, previous_cost = step.partition, c

    def test_termination_within_partition_budget(self):
        for cfg, _points, _seeding, trace in self._strict_traces(200, seed=12):
            assert not isinstance(trace.outcome, IterationCapExceeded)
            assert len(trace.steps) <= 2 ** (2 * cfg.k)

    def test_translation_and_scale_equivariance(self):
        rng = random.Random(13)
        for _ in range(100):
            cfg = random_config(rng)
            points = embed(cfg)
            seeding = random_seeding(rng, cfg.k)
            base = run(points, seeding)
            for transformed in (
                points.translate(Fraction(7, 3)),
                points.translate(-5),
                points.scale(Fraction(5, 2)),
            ):
                other = run(transformed, seeding)
                assert other.partition_sequence() == base.partition_sequence()
                assert type(other.outcome) is type(base.outcome)

    def test_mirror_equivariance(self):
        rng = random.Random(14)
        for _ in range(100):
            cfg = random_config(rng)
            points = embed(cfg)
            seeding = random_seeding(rng, cfg.k)
            base = run(points, seeding)
            mirrored = run(embed(mirror(cfg)), mirror_seeding(seeding, cfg.k))
            expected = tuple(
                Partition(tuple(reversed(labels))).canonical_labels()
                for labels in base.partition_sequence()
            )
            assert mirrored.partition_sequence() == expected
            assert type(mirrored.outcome) is type(base.outcome)

    def test_branch_agreement_on_tie_free_runs(self):
        rng = random.Random(15)
        checked = 0
        for _ in range(100):
            cfg = random_config(rng)
            points = embed(cfg)
            seeding = random_seeding(rng, cfg.k)
            strict = run(points, seeding)
            if not strict.converged:
                continue
            branches = run(points, seeding, TiePolicy.BRANCH)
            assert len(branches) == 1
            assert branches[0].partition_sequence() == strict.partition_sequence()
            checked += 1
        assert checked > 50

    def test_engine_steps_match_public_assign(self):
        # the scaled integer core and the plain Fraction reference must agree,
        # down to the point and clusters a tie reports
        rng = random.Random(16)
        ties = late_ties = 0
        for i in range(1100):
            cfg = random_config(rng) if i < 100 else tie_prone_config(rng, rng.randint(1, 6))
            points = embed(cfg)
            trace = run(points, random_seeding(rng, cfg.k))
            for step in trace.steps:
                if step.partition is not None:
                    assert assign(points, step.centroids).labels == step.partition.labels
                    continue
                with pytest.raises(TieError) as info:
                    assign(points, step.centroids)
                tie = trace.outcome
                assert isinstance(tie, TieEncountered) and tie.step_index == len(trace.steps) - 1
                assert info.value.point_index == tie.point_index
                assert info.value.clusters == tie.clusters
                ties += 1
                late_ties += tie.step_index > 0
        assert ties > 200 and late_ties > 50

    def test_engine_updates_match_public_update(self):
        # frozen empty-cluster centroids included: this config empties clusters
        points = embed(DistanceConfig((18, 9, 17, 1, 36, 31), (7, 42, 50, 24, 10)))
        frozen = 0
        for indices in itertools.combinations(range(1, 13), 6):
            trace = run(points, Seeding(indices))
            frozen += trace.used_empty_cluster_rule()
            for step, after in zip(trace.steps, trace.steps[1:]):
                assert update(points, step.partition, step.centroids) == after.centroids
        assert frozen


class TestSerialization:
    def test_trace_dict_shape(self):
        points = embed(DistanceConfig((1, 3, 3, 1), (2, 2, 2)))
        trace = run(points, Seeding((2, 4, 5, 7)))
        data = trace_to_dict(trace)
        assert data["seeding"] == [2, 4, 5, 7]
        assert data["outcome"]["kind"] == "converged"
        assert data["steps"][0]["centroids"] == ["1", "6", "8", "13"]
        assert data["steps"][1]["centroids"] == ["4/3", "6", "8", "38/3"]
        assert data["steps"][0]["labels"] == [0, 0, 0, 1, 2, 3, 3, 3]

    def test_digest_stable(self):
        points = embed(DistanceConfig((1, 3, 3, 1), (2, 2, 2)))
        t1 = run(points, Seeding((2, 4, 5, 7)))
        t2 = run(points, Seeding((2, 4, 5, 7)))
        assert trace_digest(t1) == trace_digest(t2)
        assert trace_digest(t1).startswith("sha256:")

    def test_digest_differs_across_seedings(self):
        points = embed(DistanceConfig((1, 3, 3, 1), (2, 2, 2)))
        assert trace_digest(run(points, Seeding((2, 4, 5, 7)))) != trace_digest(
            run(points, Seeding((1, 3, 5, 7)))
        )


class TestIntegerHistory:
    """Engine traces keep their integer history and build ``steps`` on first
    read; a trace rebuilt from those steps must serialize, compare and answer
    the same."""

    @staticmethod
    def runs(rng):
        """Strict and branch traces on tie-heavy, fractional and translated
        configs at caps 1, 2, 3 and the default, and on a config where some
        runs empty a cluster."""
        points = embed(DistanceConfig((18, 9, 17, 1, 36, 31), (7, 42, 50, 24, 10)))
        for indices in ((1, 2, 3, 7, 8, 9), (2, 3, 7, 8, 9, 10), (2, 4, 6, 8, 10, 12)):
            yield run(points, Seeding(indices))
            yield from run(points, Seeding(indices), TiePolicy.BRANCH)
        for i in range(240):
            k = rng.randint(1, 6)
            cfg = tie_prone_config(rng, k)
            if i % 3 == 1:  # fractional entries
                cfg = DistanceConfig(
                    tuple(Fraction(x, rng.randint(1, 3)) for x in cfg.a),
                    tuple(Fraction(x, rng.randint(1, 3)) for x in cfg.p),
                )
            points = embed(cfg)
            if i % 3 == 2:  # negative and fractional positions
                points = points.translate(Fraction(-rng.randint(1, 20), rng.randint(1, 4)))
            seeding = random_seeding(rng, k)
            if i % 2:  # a centroid at point 1, which embed puts at 0
                seeding = Seeding((1, *seeding.indices[1:]))
            for cap in (1, 2, 3, DEFAULT_CAP):
                yield run(points, seeding, cap=cap)
                yield from run(points, seeding, TiePolicy.BRANCH, cap)

    def test_engine_traces_match_rebuilt_traces(self):
        kinds = set()
        zeros = empties = 0
        for trace in self.runs(random.Random(26)):
            data = trace_to_dict(trace)  # before ``steps`` is first read
            sequence = trace.partition_sequence()
            empty = trace.used_empty_cluster_rule()
            rebuilt = LloydTrace(trace.seeding, trace.steps, trace.outcome)
            assert data == trace_to_dict(rebuilt)
            assert sequence == rebuilt.partition_sequence()
            assert empty == rebuilt.used_empty_cluster_rule()
            assert trace == rebuilt and hash(trace) == hash(rebuilt)
            assert repr(trace) == repr(rebuilt)
            assert all(type(v) is Fraction for step in trace.steps for v in step.centroids.values)
            kinds.add(trace.outcome.kind)
            zeros += "0" in data["steps"][0]["centroids"]
            empties += empty
        assert kinds == {"converged", "tie", "cap-exceeded"}
        assert zeros > 100 and empties > 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(10**6), 10**6), st.integers(1, 10**4))
    def test_centroid_text_is_fraction_text(self, num, den):
        assert lloyd._ratio_text(num, den) == str(Fraction(num, den))

    def test_pickle_before_and_after_steps_are_read(self):
        points = embed(DistanceConfig((Fraction(1, 2), 3, 3, 1), (2, Fraction(4, 3), 2)))
        traces = (run(points, Seeding((1, 4, 5, 7))), *run(points, Seeding((1, 3, 5, 7)), TiePolicy.BRANCH))
        for trace in traces:
            digest = trace_digest(trace)
            before = pickle.loads(pickle.dumps(trace))
            assert trace_digest(before) == digest
            assert before == trace and repr(before) == repr(trace)
            trace.steps  # now built and kept
            after = pickle.loads(pickle.dumps(trace))
            assert trace_digest(after) == digest
            assert after == trace and after.steps == trace.steps
            assert after.partition_sequence() == trace.partition_sequence()
