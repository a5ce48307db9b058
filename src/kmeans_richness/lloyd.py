"""Exact Lloyd iteration on the line.

Alternates nearest-centroid assignment and mean updates until the partition
repeats, recording the full history.  Distance ties are never broken
silently: strict mode aborts with the offending point, branch mode explores
every resolution.

Internally the iteration runs on integer coordinates obtained by clearing
denominators (partition sequences are scale-invariant), with centroids kept
as exact ``(sum, count)`` pairs; traces expose them as Fractions.  The public
``assign`` and ``update`` are the plain-Fraction definition of one step,
the reference the integer core is tested against.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, product
from typing import Sequence

from .model import Partition, PointSet, Seeding, _over_lcm

DEFAULT_CAP = 10_000
DEFAULT_BRANCH_LIMIT = 10_000


class TiePolicy(Enum):
    STRICT = "strict"
    BRANCH = "branch"


class TieError(Exception):
    """A point is exactly equidistant from its nearest centroids."""

    def __init__(self, point_index: int, clusters: Sequence[int]):
        self.point_index = point_index  # 1-based
        self.clusters = tuple(clusters)
        super().__init__(f"point {point_index} equidistant from clusters {list(self.clusters)}")


class BranchLimitError(RuntimeError):
    """Branch exploration exceeded its trace budget."""


@dataclass(frozen=True)
class Centroids:
    """Cluster centers; an empty cluster keeps its previous value, flagged."""

    values: tuple[Fraction, ...]
    empty: tuple[bool, ...] = ()

    def __post_init__(self):
        values = tuple(v if type(v) is Fraction else Fraction(v) for v in self.values)
        empty = tuple(self.empty) if self.empty else (False,) * len(values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "empty", empty)
        if not values:
            raise ValueError("need at least one centroid")
        if len(empty) != len(values):
            raise ValueError("empty mask length mismatch")

    @property
    def k(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Converged:
    kind = "converged"
    final: Partition


@dataclass(frozen=True)
class TieEncountered:
    kind = "tie"
    step_index: int
    point_index: int  # 1-based
    clusters: tuple[int, ...]


@dataclass(frozen=True)
class IterationCapExceeded:
    kind = "cap-exceeded"
    cap: int


Outcome = Converged | TieEncountered | IterationCapExceeded


@dataclass(frozen=True)
class LloydStep:
    """Centroids entering an assignment and the partition it produced.

    ``partition`` is None only on the step where a strict-mode tie aborted.
    """

    centroids: Centroids
    partition: Partition | None


@dataclass(frozen=True)
class LloydTrace:
    seeding: Seeding
    steps: tuple[LloydStep, ...]
    outcome: Outcome

    @property
    def converged(self) -> bool:
        return isinstance(self.outcome, Converged)

    @property
    def final_partition(self) -> Partition | None:
        return self.outcome.final if isinstance(self.outcome, Converged) else None

    def partition_sequence(self) -> tuple[tuple[int, ...], ...]:
        """Canonical label tuples of the completed steps."""
        return tuple(
            step.partition.canonical_labels() for step in self.steps if step.partition is not None
        )

    def used_empty_cluster_rule(self) -> bool:
        """True if any step carried a frozen empty-cluster centroid."""
        return any(any(step.centroids.empty) for step in self.steps)


# --- scaled integer core ------------------------------------------------------
#
# Positions are integers; a centroid is (s, c) meaning the exact value s/c.
# Adjacent-centroid midpoints are (num, den) pairs; a point x sits left of a
# boundary iff x*den < num, and exactly on it iff equal (a nearest-distance
# tie between the two clusters it separates).


class EngineInvariantError(AssertionError):
    """Centroid ordering broke; indicates a bug, not bad input."""


def _boundary(xs: Sequence[int], s1: int, c1: int, s2: int, c2: int) -> int:
    """How many points lie strictly left of the midpoint of centroids s1/c1 <
    s2/c2, or ``~cut`` (negative) when the point at ``cut`` lies on it."""
    left = s1 * c2
    right = s2 * c1
    if left >= right:
        raise EngineInvariantError("centroids out of order")
    num = left + right
    den = 2 * c1 * c2
    cut = bisect_left(xs, -(-num // den))
    return ~cut if cut < len(xs) and xs[cut] * den == num else cut


def _boundaries(xs: Sequence[int], cents: Sequence[tuple[int, int]]) -> list[int]:
    """Nearest-centroid assignment as cuts: ``_boundary`` for each pair of
    adjacent centroids, left to right."""
    return [_boundary(xs, s1, c1, s2, c2) for (s1, c1), (s2, c2) in zip(cents, cents[1:])]


def _means(
    prefix: Sequence[int], cuts: Sequence[int], prev: Sequence[tuple[int, int]]
) -> tuple[list[tuple[int, int]], tuple[bool, ...]]:
    """Block means as (sum, count) from prefix sums; an empty block keeps prev[j]."""
    cents = []
    empty = []
    lo = 0
    for j, hi in enumerate((*cuts, len(prefix) - 1)):
        if hi > lo:
            cents.append((prefix[hi] - prefix[lo], hi - lo))
            empty.append(False)
        else:
            cents.append(prev[j])
            empty.append(True)
        lo = hi
    return cents, tuple(empty)


def _labels(cuts: Sequence[int], n: int) -> tuple[int, ...]:
    """Per-point block ids of the partition with these cuts."""
    labels = []
    lo = 0
    for j, hi in enumerate((*cuts, n)):
        labels += [j] * (hi - lo)
        lo = hi
    return tuple(labels)


_RawStep = tuple[list[tuple[int, int]], tuple[bool, ...], tuple[int, ...] | None]
_Tie = tuple[int, int, tuple[int, int]]


def _iterate(
    xs: Sequence[int],
    prefix: Sequence[int],
    seed_indices: Sequence[int],
    cap: int,
    history: list[_RawStep] | None = None,
) -> tuple[str, tuple[int, ...] | None, bool, int, _Tie | None]:
    """The one strict Lloyd loop, from the seeded centroids.

    Returns (kind, final labels, empty rule used, steps, tie), where tie is
    (step, 1-based point, (j, j+1)) when kind is "tie".  Clusters on the line
    stay contiguous, so each step's partition is its cut tuple; labels are
    built only for ``history`` (when a list, each step's (centroids, empty
    mask, labels) is appended to it) and for the final partition.
    """
    n = len(xs)
    cents: list[tuple[int, int]] = [(xs[i - 1], 1) for i in seed_indices]
    empty: tuple[bool, ...] = (False,) * len(seed_indices)
    empty_seen = False
    prev = None
    for step in range(cap):
        cuts = tuple(_boundaries(xs, cents))
        if cuts and min(cuts) < 0:
            if history is not None:
                history.append((cents, empty, None))
            # boundaries strictly increase, so the lowest tied one holds the first tied point
            j = next(j for j, cut in enumerate(cuts) if cut < 0)
            return "tie", None, empty_seen, step + 1, (step, ~cuts[j] + 1, (j, j + 1))
        if history is not None:
            history.append((cents, empty, _labels(cuts, n)))
        if cuts == prev:
            return "converged", _labels(cuts, n), empty_seen, step + 1, None
        prev = cuts
        cents, empty = _means(prefix, cuts, cents)
        if not empty_seen and any(empty):
            empty_seen = True
    return "cap-exceeded", None, empty_seen, cap, None


class LineEngine:
    """Reusable iteration core for one point set (denominators cleared once)."""

    def __init__(self, points: PointSet):
        self.points = points
        self._xs, self._den = _over_lcm(points.positions)
        self._prefix = [0, *accumulate(self._xs)]
        self._table: dict[tuple[int, int, int], int] = {}

    def _check_seeding(self, seeding: Seeding) -> None:
        if seeding.indices[-1] > self.points.n:
            raise ValueError(
                f"seed index {seeding.indices[-1]} out of range 1..{self.points.n}"
            )

    def _centroids(self, cents: Sequence[tuple[int, int]], empty: tuple[bool, ...]) -> Centroids:
        den = self._den
        return Centroids(tuple(Fraction(s, c * den) for s, c in cents), empty)

    def _materialize(self, seeding: Seeding, steps: list[_RawStep], outcome: Outcome) -> LloydTrace:
        out = tuple(
            LloydStep(
                self._centroids(cents, empty),
                Partition(labels) if labels is not None else None,
            )
            for cents, empty, labels in steps
        )
        return LloydTrace(seeding, out, outcome)

    def run_strict(self, seeding: Seeding, cap: int = DEFAULT_CAP) -> LloydTrace:
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self._check_seeding(seeding)
        steps: list[_RawStep] = []
        kind, final, _empty, _steps, tie = _iterate(
            self._xs, self._prefix, seeding.indices, cap, steps
        )
        outcome: Outcome
        if kind == "converged":
            outcome = Converged(Partition(final))
        elif tie is not None:
            outcome = TieEncountered(*tie)
        else:
            outcome = IterationCapExceeded(cap)
        return self._materialize(seeding, steps, outcome)

    def step0_cuts(self) -> list[list[int | None]]:
        """Where a step-0 assignment splits the points, per pair of seeds.

        ``cuts[i][j]`` for 1-based point indices i < j is how many points lie
        strictly left of the midpoint of points i and j, or None when a point
        lies exactly on it (a nearest-distance tie).  Seeded at i and j with
        no seed between them, step 0 separates the two clusters there.
        """
        xs = self._xs
        n = len(xs)
        cuts: list[list[int | None]] = [[None] * (n + 1) for _ in range(n + 1)]
        for i in range(1, n):
            row = cuts[i]
            for j in range(i + 1, n + 1):
                cut = _boundary(xs, xs[i - 1], 1, xs[j - 1], 1)
                row[j] = None if cut < 0 else cut
        return cuts

    def run_lean(
        self, seed_indices: tuple[int, ...], cap: int = DEFAULT_CAP
    ) -> tuple[str, tuple[int, ...] | None, bool, int]:
        """History-free strict run: (kind, final labels, empty rule used, steps)."""
        return _iterate(self._xs, self._prefix, seed_indices, cap)[:4]

    def step(self, cuts: tuple[int, ...]) -> tuple[int, ...] | None:
        """One Lloyd step from a partition with no empty block, given as cuts.

        Returns the next partition's cuts, or None on a midpoint tie.  With no
        empty block, the boundary between blocks j-1 and j moves to a place
        fixed by their two means alone, so by the cuts (lo, mid, hi) around
        it; ``_table`` maps each such triple to its ``_boundary`` result.
        """
        xs, prefix, table = self._xs, self._prefix, self._table
        nxt = []
        bounds = (*cuts, len(xs))
        lo = 0
        mid = bounds[0]
        for hi in bounds[1:]:
            key = (lo, mid, hi)
            cut = table.get(key)
            if cut is None:
                s1, s2 = prefix[mid] - prefix[lo], prefix[hi] - prefix[mid]
                cut = table[key] = _boundary(xs, s1, mid - lo, s2, hi - mid)
            if cut < 0:
                return None
            nxt.append(cut)
            lo, mid = mid, hi
        return tuple(nxt)

    def run_branch(self, seeding: Seeding, cap: int = DEFAULT_CAP) -> tuple[LloydTrace, ...]:
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self._check_seeding(seeding)
        xs, prefix, n = self._xs, self._prefix, self.points.n
        results: list[LloydTrace] = []

        def explore(
            cents: list[tuple[int, int]],
            empty: tuple[bool, ...],
            steps: list[_RawStep],
            prev: tuple[int, ...] | None,
            depth: int,
        ) -> None:
            if depth == cap:
                results.append(self._materialize(seeding, steps, IterationCapExceeded(cap)))
                return
            # A point on a midpoint joins the left (lower-id) cluster first.
            options = [(cut,) if cut >= 0 else (~cut + 1, ~cut) for cut in _boundaries(xs, cents)]
            for cuts in product(*options):
                if len(results) >= DEFAULT_BRANCH_LIMIT:
                    raise BranchLimitError(f"more than {DEFAULT_BRANCH_LIMIT} branch traces")
                labels = _labels(cuts, n)
                branch_steps = steps + [(cents, empty, labels)]
                if cuts == prev:
                    results.append(
                        self._materialize(seeding, branch_steps, Converged(Partition(labels)))
                    )
                    continue
                next_cents, next_empty = _means(prefix, cuts, cents)
                explore(next_cents, next_empty, branch_steps, cuts, depth + 1)

        start = [(xs[i - 1], 1) for i in seeding.indices]
        explore(start, (False,) * seeding.k, [], None, 0)
        return tuple(results)


# --- public operations --------------------------------------------------------


def seed_centroids(points: PointSet, seeding: Seeding) -> Centroids:
    """Initial centroids: the seed points themselves."""
    if seeding.indices[-1] > points.n:
        raise ValueError(f"seed index {seeding.indices[-1]} out of range 1..{points.n}")
    return Centroids(tuple(points.position(i) for i in seeding.indices))


def assign(points: PointSet, centroids: Centroids) -> Partition:
    """Label every point with its strictly nearest centroid.

    All centroids compete, including flagged-empty ones (they retain their
    positions).  An exact nearest-distance tie raises :class:`TieError` with
    the first tied point and every cluster at its minimal distance.
    """
    labels = []
    for i, x in enumerate(points.positions, 1):
        dists = [abs(x - c) for c in centroids.values]
        best = min(dists)
        ids = [j for j, d in enumerate(dists) if d == best]
        if len(ids) > 1:
            raise TieError(i, ids)
        labels.append(ids[0])
    return Partition(tuple(labels))


def update(points: PointSet, partition: Partition, previous: Centroids) -> Centroids:
    """Exact mean per non-empty cluster; empty ones keep their value, flagged."""
    labels = partition.labels
    if len(labels) != points.n:
        raise ValueError(f"partition covers {len(labels)} points, point set has {points.n}")
    if any(label >= previous.k for label in labels):
        raise ValueError("partition labels exceed centroid count")
    blocks: list[list[Fraction]] = [[] for _ in range(previous.k)]
    for x, label in zip(points.positions, labels):
        blocks[label].append(x)
    return Centroids(
        tuple(sum(block) / len(block) if block else v for block, v in zip(blocks, previous.values)),
        tuple(not block for block in blocks),
    )


def run(
    points: PointSet,
    seeding: Seeding,
    policy: TiePolicy = TiePolicy.STRICT,
    cap: int = DEFAULT_CAP,
) -> LloydTrace | tuple[LloydTrace, ...]:
    """Iterate assignment and update from the seeded centroids to a fixed point.

    Strict mode returns one trace whose outcome is Converged, TieEncountered
    or IterationCapExceeded.  Branch mode returns one trace per
    tie-resolution path; distinct paths walk distinct partition sequences.
    """
    engine = LineEngine(points)
    if policy is TiePolicy.STRICT:
        return engine.run_strict(seeding, cap)
    return engine.run_branch(seeding, cap)


def is_fixed_point(points: PointSet, partition: Partition) -> bool:
    """True iff one assign/update round reproduces the partition without ties.

    The partition must have no empty blocks.  A tie at a block boundary
    counts as not fixed, and so does a non-contiguous partition:
    nearest-centroid blocks on a line are intervals.
    """
    labels = partition.labels
    if len(labels) != points.n:
        raise ValueError(f"partition covers {len(labels)} points, point set has {points.n}")
    if len(set(labels)) != max(labels) + 1:
        raise ValueError("partition has empty blocks")
    if not partition.is_contiguous():
        return False
    cuts = tuple(i for i in range(1, len(labels)) if labels[i] != labels[i - 1])
    return LineEngine(points).step(cuts) == cuts


def cost(points: PointSet, partition: Partition) -> Fraction:
    """Within-cluster sum of squared deviations from the block means."""
    if len(partition.labels) != points.n:
        raise ValueError(f"partition covers {len(partition.labels)} points, point set has {points.n}")
    total = Fraction(0)
    for block in partition.blocks():
        xs = [points.position(i) for i in block]
        n = len(xs)
        s = sum(xs)
        sq = sum(x * x for x in xs)
        total += sq - s * s / n
    return total


# --- serialization ------------------------------------------------------------


def outcome_to_dict(outcome: Outcome) -> dict:
    if isinstance(outcome, Converged):
        return {"kind": outcome.kind, "final_labels": list(outcome.final.labels)}
    if isinstance(outcome, TieEncountered):
        return {
            "kind": outcome.kind,
            "step": outcome.step_index,
            "point": outcome.point_index,
            "clusters": list(outcome.clusters),
        }
    return {"kind": outcome.kind, "cap": outcome.cap}


def trace_to_dict(trace: LloydTrace) -> dict:
    return {
        "seeding": list(trace.seeding.indices),
        "steps": [
            {
                "centroids": [str(v) for v in step.centroids.values],
                "labels": list(step.partition.labels) if step.partition is not None else None,
            }
            for step in trace.steps
        ],
        "outcome": outcome_to_dict(trace.outcome),
    }


def trace_digest(trace: LloydTrace) -> str:
    text = json.dumps(trace_to_dict(trace), sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
