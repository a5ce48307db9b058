"""Exact Lloyd iteration on the line.

Alternates nearest-centroid assignment and mean updates until the partition
repeats, recording the full history.  Distance ties are never broken
silently: strict mode aborts with the offending point, branch mode explores
every resolution.

Internally the iteration runs on integer coordinates obtained by clearing
denominators (partition sequences are scale-invariant), with centroids kept
as exact ``(sum, count)`` pairs.  A trace keeps that integer history:
serialization, digests, partition sequences and the empty-rule flag read it
directly, and only ``LloydTrace.steps`` exposes Fractions, built on first
access.  The public ``assign`` and ``update`` are the plain-Fraction
definition of one step, the reference the integer core is tested against.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, product
from math import gcd
from typing import Iterator, Sequence

from .model import DistanceConfig, Partition, PointSet, Seeding, _int_positions, canonical_labels

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
    """A run from a seeding: its steps and how it ended.

    ``_history`` holds the steps as integers: per step, centroids as (sum,
    count) pairs meaning sum/(count * ``_den``), the empty mask and the
    labels (None on a strict-mode tie).  The engine's traces hold only that,
    and build ``steps`` on first read; the methods below and
    ``trace_to_dict`` read the integers.
    """

    seeding: Seeding
    steps: tuple[LloydStep, ...]
    outcome: Outcome

    def __post_init__(self):
        # steps given: their history over den 1, a centroid n/d as the pair (n, d)
        history = [
            (
                [(v.numerator, v.denominator) for v in step.centroids.values],
                step.centroids.empty,
                step.partition.labels if step.partition is not None else None,
            )
            for step in self.steps
        ]
        vars(self).update(_history=history, _den=1)

    @classmethod
    def _of_history(cls, seeding: Seeding, history: list, den: int, outcome: Outcome) -> LloydTrace:
        trace = object.__new__(cls)
        vars(trace).update(seeding=seeding, outcome=outcome, _history=history, _den=den)
        return trace

    def __getattr__(self, name: str):
        # reached only for attributes not set, so for ``steps`` only once
        if name != "steps" or "_history" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        den = self._den
        steps = tuple(
            LloydStep(
                Centroids(tuple(Fraction(s, c * den) for s, c in cents), empty),
                Partition(labels) if labels is not None else None,
            )
            for cents, empty, labels in self._history
        )
        object.__setattr__(self, "steps", steps)
        return steps

    @property
    def converged(self) -> bool:
        return isinstance(self.outcome, Converged)

    @property
    def final_partition(self) -> Partition | None:
        return self.outcome.final if isinstance(self.outcome, Converged) else None

    def partition_sequence(self) -> tuple[tuple[int, ...], ...]:
        """Canonical label tuples of the completed steps."""
        return tuple(canonical_labels(labels) for _, _, labels in self._history if labels is not None)

    def used_empty_cluster_rule(self) -> bool:
        """True if any step carried a frozen empty-cluster centroid."""
        return any(any(empty) for _, empty, _ in self._history)


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
# a run at a step: (step, centroids, empty mask, previous cuts, empty rule used, that step's cuts)
_State = tuple[int, list[tuple[int, int]], tuple[bool, ...], tuple[int, ...] | None, bool, tuple[int, ...]]


def _iterate(
    xs: Sequence[int],
    prefix: Sequence[int],
    seed_indices: Sequence[int],
    cap: int,
    history: list[_RawStep] | None = None,
    resume: _State | tuple[()] | None = None,
) -> tuple[str, tuple[int, ...] | _Tie | _State | None, bool, int]:
    """The one Lloyd loop, from the seeded centroids.

    Returns (kind, detail, empty rule used, steps).  ``detail`` is the final
    partition's cuts when kind is "converged", the tie (step, 1-based point,
    (j, j+1)) when it is "tie", and None on "cap-exceeded".  Clusters on the
    line stay contiguous, so each step's partition is its cut tuple; labels
    are built only for ``history`` (when a list, each step's (centroids,
    empty mask, labels) is appended to it).  Branch mode passes ``resume``,
    ``()`` or a ``_State`` to go on from; a tie then returns its ``_State``.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = len(xs)
    if resume:
        first, cents, empty, prev, empty_seen, cuts = resume
    else:
        cents = [(xs[i - 1], 1) for i in seed_indices]
        first, empty, prev, empty_seen = 0, (False,) * len(seed_indices), None, False
        cuts = tuple(_boundaries(xs, cents))
    for step in range(first, cap):
        if cuts and min(cuts) < 0:
            if resume is not None:
                return "tie", (step, cents, empty, prev, empty_seen, cuts), empty_seen, step + 1
            if history is not None:
                history.append((cents, empty, None))
            # boundaries strictly increase, so the lowest tied one holds the first tied point
            j = next(j for j, cut in enumerate(cuts) if cut < 0)
            return "tie", (step, ~cuts[j] + 1, (j, j + 1)), empty_seen, step + 1
        if history is not None:
            history.append((cents, empty, _labels(cuts, n)))
        if cuts == prev:
            return "converged", cuts, empty_seen, step + 1
        prev = cuts
        cents, empty = _means(prefix, cuts, cents)
        if not empty_seen and any(empty):
            empty_seen = True
        cuts = tuple(_boundaries(xs, cents))
    return "cap-exceeded", None, empty_seen, cap


class LineEngine:
    """Reusable iteration core for one point set (denominators cleared once)."""

    def __init__(self, points: PointSet):
        self._load(*points._ints)

    @classmethod
    def _of_config(cls, cfg: DistanceConfig) -> LineEngine:
        """``LineEngine(embed(cfg))``, built from the config's integer view."""
        return cls.__new__(cls)._load(*_int_positions(cfg))

    def _load(self, xs: tuple[int, ...], den: int) -> LineEngine:
        self._xs, self._den = xs, den
        self._prefix = [0, *accumulate(xs)]
        self._table: dict[tuple[int, int, int], int] = {}
        return self

    def _check_seeding(self, seeding: Seeding) -> None:
        if seeding.indices[-1] > len(self._xs):
            raise ValueError(f"seed index {seeding.indices[-1]} out of range 1..{len(self._xs)}")

    def _trace(self, seeding: Seeding, cap: int, steps: list[_RawStep], kind: str, detail) -> LloydTrace:
        if kind == "converged":
            outcome = Converged(Partition(steps[-1][2]))
        elif kind == "tie":
            outcome = TieEncountered(*detail)
        else:
            outcome = IterationCapExceeded(cap)
        return LloydTrace._of_history(seeding, steps, self._den, outcome)

    def run_strict(self, seeding: Seeding, cap: int = DEFAULT_CAP) -> LloydTrace:
        self._check_seeding(seeding)
        steps: list[_RawStep] = []
        kind, detail, *_ = _iterate(self._xs, self._prefix, seeding.indices, cap, steps)
        return self._trace(seeding, cap, steps, kind, detail)

    def run_lean(
        self, seed_indices: tuple[int, ...], cap: int = DEFAULT_CAP
    ) -> tuple[str, tuple[int, ...] | _Tie | None, bool, int]:
        """History-free strict run: (kind, final cuts or tie, empty rule used, steps)."""
        return _iterate(self._xs, self._prefix, seed_indices, cap)

    def _cut(self, lo: int, mid: int, hi: int) -> int:
        """Fill ``_table``'s entry for blocks (lo, mid] and (mid, hi] (``step`` fills it inline)."""
        s1, s2 = self._prefix[mid] - self._prefix[lo], self._prefix[hi] - self._prefix[mid]
        cut = self._table[lo, mid, hi] = _boundary(self._xs, s1, mid - lo, s2, hi - mid)
        return cut

    def step(self, cuts: tuple[int, ...]) -> tuple[int, ...] | bool | None:
        """One Lloyd step from a partition with no empty block, given as cuts.

        Returns the next partition's cuts, None on a midpoint tie, or False
        when the next partition has an empty block and no tie: a cut not
        above the one before it.  (Each midpoint lies strictly between the
        first and the last point, so no cut is 0 or n.)  With no empty block,
        the boundary between blocks j-1 and j moves to a place fixed by their
        two means alone, so by the cuts (lo, mid, hi) around it; ``_table``
        maps each such triple to its ``_boundary`` result.
        """
        xs, prefix, table = self._xs, self._prefix, self._table
        nxt = []
        bounds = (*cuts, len(xs))
        lo = last = 0
        mid = bounds[0]
        empty = False
        for hi in bounds[1:]:
            key = (lo, mid, hi)
            cut = table.get(key)
            if cut is None:
                s1, s2 = prefix[mid] - prefix[lo], prefix[hi] - prefix[mid]
                cut = table[key] = _boundary(xs, s1, mid - lo, s2, hi - mid)
            if cut <= last:  # a tie anywhere wins over an empty block
                if cut < 0:
                    return None
                empty = True
            nxt.append(cut)
            lo, mid, last = mid, hi, cut
        return False if empty else tuple(nxt)

    def run_branch(self, seeding: Seeding, cap: int = DEFAULT_CAP) -> tuple[LloydTrace, ...]:
        """One trace per tie resolution, depth first: ``pending`` holds each tied
        step on the path as (history before it, its state, resolutions left)."""
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self._check_seeding(seeding)
        results: list[LloydTrace] = []
        pending: list[tuple[list[_RawStep], tuple, Iterator[tuple[int, ...]]]] = []
        history, resume = [], ()
        while True:
            kind, detail, *_ = _iterate(self._xs, self._prefix, seeding.indices, cap, history, resume)
            if kind != "tie":
                results.append(self._trace(seeding, cap, history, kind, detail))
            else:  # a point on a midpoint joins the left (lower-id) cluster first
                options = [(cut,) if cut >= 0 else (~cut + 1, ~cut) for cut in detail[5]]
                pending.append((history, detail[:5], product(*options)))
            while pending and (cuts := next(pending[-1][2], None)) is None:
                pending.pop()
            if not pending:
                return tuple(results)
            if len(results) >= DEFAULT_BRANCH_LIMIT:
                raise BranchLimitError(f"more than {DEFAULT_BRANCH_LIMIT} branch traces")
            history, resume = pending[-1][0][:], (*pending[-1][1], cuts)


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


def _ratio_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0, without building the Fraction."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def trace_to_dict(trace: LloydTrace) -> dict:
    den = trace._den
    return {
        "seeding": list(trace.seeding.indices),
        "steps": [
            {
                "centroids": [_ratio_text(s, c * den) for s, c in cents],
                "labels": list(labels) if labels is not None else None,
            }
            for cents, _empty, labels in trace._history
        ],
        "outcome": outcome_to_dict(trace.outcome),
    }


def trace_digest(trace: LloydTrace | dict) -> str:
    """SHA-256 of the trace's canonical JSON; ``trace`` may be ``trace_to_dict``'s output."""
    data = trace_to_dict(trace) if isinstance(trace, LloydTrace) else trace
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
