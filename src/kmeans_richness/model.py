"""Exact one-dimensional instance model.

A distance configuration describes 2k collinear points through k intra-pair
distances ``a`` and k-1 inter-pair gaps ``p``.  Everything downstream
(embedding, partitions, seedings) stays in exact rational arithmetic; floats
are rejected at the boundary because strict-inequality comparisons are the
whole point of the exercise.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from math import lcm
from typing import Sequence

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:\s*/\s*\d+)?\Z")


class ConfigParseError(ValueError):
    """Malformed config text; ``position`` is the character offset."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)


class NonPositiveDistanceError(ValueError):
    """Distances must be strictly positive."""


def _coerce_rational(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass int, str or Fraction")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse ``'3'``, ``'-7'`` or ``'3/2'`` into an exact fraction."""
    token = text.strip()
    if not _RATIONAL_RE.match(token):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def _over_lcm(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """``values`` as integer numerators over one denominator, the lcm of theirs."""
    den = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


def format_rational(value) -> str:
    """Canonical ``num/den`` (or plain integer) rendering."""
    return str(_coerce_rational(value))


@dataclass(frozen=True)
class DistanceConfig:
    """k intra-pair distances ``a`` and k-1 gaps ``p``, all positive.

    ``_ints`` is the same config as integers over one denominator: (a
    numerators, p numerators, den), with den the lcm of the entries'
    denominators.  It is not a field, so eq, hash and repr ignore it.
    """

    a: tuple[Fraction, ...]
    p: tuple[Fraction, ...]

    def __post_init__(self):
        a = tuple(_coerce_rational(x) for x in self.a)
        p = tuple(_coerce_rational(x) for x in self.p)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "p", p)
        if not a:
            raise ValueError("need at least one intra-pair distance")
        if len(p) != len(a) - 1:
            raise ValueError(f"expected {len(a) - 1} gaps for k={len(a)}, got {len(p)}")
        nums, den = _over_lcm(a + p)
        if min(nums) <= 0:
            first = next(x for x, num in zip(a + p, nums) if num <= 0)
            raise NonPositiveDistanceError(f"non-positive distance {first}")
        object.__setattr__(self, "_ints", (nums[: len(a)], nums[len(a) :], den))

    @classmethod
    def _of_ints(cls, a: Sequence[int], p: Sequence[int]) -> DistanceConfig:
        """The config of positive integer entries a, p; unchecked.  Its
        integer view is (a, p, 1), as ``_over_lcm`` would give."""
        a, p = tuple(a), tuple(p)
        cfg = object.__new__(cls)
        object.__setattr__(cfg, "a", tuple(map(Fraction, a)))
        object.__setattr__(cfg, "p", tuple(map(Fraction, p)))
        object.__setattr__(cfg, "_ints", (a, p, 1))
        return cfg

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def n_points(self) -> int:
        return 2 * len(self.a)


def scale_config(cfg: DistanceConfig, factor) -> DistanceConfig:
    """Multiply every distance by a positive rational factor."""
    factor = _coerce_rational(factor)
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    return DistanceConfig(tuple(x * factor for x in cfg.a), tuple(x * factor for x in cfg.p))


@dataclass(frozen=True)
class ValidityReport:
    """Where the pairing-stability constraints |a_j - a_{j+1}| < 2 p_j fail.

    ``exceeded`` lists 1-based gap indices whose difference exceeds the bound,
    ``tied`` those where it exactly meets it.  Both count as not valid.
    """

    exceeded: tuple[int, ...]
    tied: tuple[int, ...]

    @property
    def valid(self) -> bool:
        return not self.exceeded and not self.tied

    @property
    def violations(self) -> tuple[int, ...]:
        return tuple(sorted(self.exceeded + self.tied))


def is_valid(a, p) -> bool:
    """|a_j - a_{j+1}| < 2 p_j at every gap of plain sequences; homogeneous, so
    integer numerators over one positive denominator answer as their fractions."""
    for j in range(len(p)):
        if abs(a[j] - a[j + 1]) >= 2 * p[j]:
            return False
    return True


def validate(cfg: DistanceConfig) -> ValidityReport:
    """Check |a_j - a_{j+1}| < 2 p_{j,j+1} strictly at every gap."""
    exceeded: list[int] = []
    tied: list[int] = []
    for j in range(cfg.k - 1):
        if not is_valid(cfg.a[j : j + 2], cfg.p[j : j + 1]):
            on_bound = abs(cfg.a[j] - cfg.a[j + 1]) == 2 * cfg.p[j]
            (tied if on_bound else exceeded).append(j + 1)
    return ValidityReport(tuple(exceeded), tuple(tied))


def _require_valid(cfg: DistanceConfig) -> None:
    """Raise ValueError naming the failing gaps unless ``cfg`` is valid."""
    a, p, _den = cfg._ints
    if not is_valid(a, p):
        gaps = list(validate(cfg).violations)
        raise ValueError(f"config not valid: |a_j - a_(j+1)| < 2*p constraint fails at gaps {gaps}")


@dataclass(frozen=True)
class PointSet:
    """Strictly increasing coordinates on the line.

    ``_ints`` is the same point set as integers over one denominator:
    (numerators, den), with den the lcm of the positions' denominators.  It
    is not a field, so eq, hash and repr ignore it.
    """

    positions: tuple[Fraction, ...]

    def __post_init__(self):
        pos = tuple(_coerce_rational(x) for x in self.positions)
        object.__setattr__(self, "positions", pos)
        if not pos:
            raise ValueError("empty point set")
        self._keep_ints(*_over_lcm(pos))

    @classmethod
    def _of_ints(cls, xs: tuple[int, ...], den: int) -> PointSet:
        """The points xs[i]/den, where den is the lcm of their denominators."""
        points = object.__new__(cls)
        object.__setattr__(points, "positions", tuple(Fraction(x, den) for x in xs))
        points._keep_ints(xs, den)
        return points

    def _keep_ints(self, xs: tuple[int, ...], den: int) -> None:
        for left, right in zip(xs, xs[1:]):  # den > 0: ordered as the positions are
            if left >= right:
                raise ValueError("positions must be strictly increasing")
        object.__setattr__(self, "_ints", (xs, den))

    @property
    def n(self) -> int:
        return len(self.positions)

    def position(self, index: int) -> Fraction:
        """Coordinate of point ``index`` (1-based)."""
        if not 1 <= index <= len(self.positions):
            raise IndexError(f"point index {index} out of range 1..{len(self.positions)}")
        return self.positions[index - 1]

    def gaps(self) -> tuple[Fraction, ...]:
        return tuple(b - a for a, b in zip(self.positions, self.positions[1:]))

    def translate(self, offset) -> PointSet:
        offset = _coerce_rational(offset)
        return PointSet(tuple(x + offset for x in self.positions))

    def scale(self, factor) -> PointSet:
        factor = _coerce_rational(factor)
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return PointSet(tuple(x * factor for x in self.positions))


def _int_positions(cfg: DistanceConfig) -> tuple[tuple[int, ...], int]:
    """``embed(cfg)`` on the integer view: the numerators over its denominator."""
    a, p, den = cfg._ints
    gaps = [d for pair in zip(a, p) for d in pair] + [a[-1]]
    return tuple(accumulate(gaps, initial=0)), den


def embed(cfg: DistanceConfig) -> PointSet:
    """Lay out the 2k points with the first at 0, alternating a_j and p_j."""
    return PointSet._of_ints(*_int_positions(cfg))


def canonical_labels(labels: Sequence[int]) -> tuple[int, ...]:
    """Relabel blocks 0, 1, 2, ... in order of their leftmost member."""
    mapping: dict[int, int] = {}
    out = []
    for label in labels:
        if label not in mapping:
            mapping[label] = len(mapping)
        out.append(mapping[label])
    return tuple(out)


@dataclass(frozen=True, eq=False)
class Partition:
    """Cluster label per point.

    Labels are raw cluster ids (some may be unused, i.e. empty blocks).
    Equality and hashing go through the canonical form: blocks ordered by
    leftmost member and relabeled 0, 1, 2, ...  A partition with empty blocks
    therefore never equals one whose blocks all differ in count.
    """

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(map(operator.index, self.labels))
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("empty partition")
        if any(x < 0 for x in labels):
            raise ValueError("cluster ids must be non-negative")

    def canonical_labels(self) -> tuple[int, ...]:
        return canonical_labels(self.labels)

    def canonical(self) -> Partition:
        return Partition(self.canonical_labels())

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Non-empty blocks as 1-based point indices, ordered by leftmost member."""
        out: dict[int, list[int]] = {}
        for i, label in enumerate(self.canonical_labels()):
            out.setdefault(label, []).append(i + 1)
        return tuple(tuple(out[label]) for label in sorted(out))

    def block_count(self) -> int:
        return len(set(self.labels))

    def is_contiguous(self) -> bool:
        """Every block occupies a consecutive run of point indices."""
        seen_last: dict[int, int] = {}
        for i, label in enumerate(self.labels):
            last = seen_last.get(label)
            if last is not None and last != i - 1:
                return False
            seen_last[label] = i
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.canonical_labels() == other.canonical_labels()

    def __hash__(self) -> int:
        return hash(self.canonical_labels())


@cache
def target_partition(k: int) -> Partition:
    """The pairing partition: points 2j-1 and 2j share block j, built once per k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Partition(tuple(i // 2 for i in range(2 * k)))


@dataclass(frozen=True)
class Seeding:
    """Sorted distinct 1-based point indices used as initial centroids."""

    indices: tuple[int, ...]

    def __post_init__(self):
        indices = tuple(sorted(map(operator.index, self.indices)))
        object.__setattr__(self, "indices", indices)
        if not indices:
            raise ValueError("empty seeding")
        if indices[0] < 1:
            raise ValueError("point indices are 1-based")
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate seed indices in {indices}")

    @classmethod
    def _of_sorted(cls, indices: tuple[int, ...]) -> Seeding:
        """A seeding from indices already sorted, distinct, 1-based ints; unchecked."""
        seeding = object.__new__(cls)
        object.__setattr__(seeding, "indices", indices)
        return seeding

    @property
    def k(self) -> int:
        return len(self.indices)

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.indices) + "}"


def mirror(cfg: DistanceConfig) -> DistanceConfig:
    """Reverse the configuration left-to-right."""
    return DistanceConfig(tuple(reversed(cfg.a)), tuple(reversed(cfg.p)))


def mirror_seeding(seeding: Seeding, k: int) -> Seeding:
    """Reflect seed indices: i becomes 2k+1-i."""
    n = 2 * k
    if seeding.indices[-1] > n:
        raise ValueError(f"seed index {seeding.indices[-1]} out of range for k={k}")
    return Seeding(tuple(n + 1 - i for i in seeding.indices))


# --- text and JSON formats ---------------------------------------------------


def parse_config(text: str) -> DistanceConfig:
    """Parse ``"a=1,3/2,3,1; p=2,2,2"`` (the p part may be omitted when k=1)."""
    fields: dict[str, list[Fraction]] = {}
    offset = 0
    for chunk in text.split(";"):
        stripped = chunk.strip()
        if stripped:
            start = offset + (len(chunk) - len(chunk.lstrip()))
            eq = chunk.find("=")
            if eq < 0:
                raise ConfigParseError("expected 'name=value,value,...'", start)
            name = chunk[:eq].strip()
            if name not in ("a", "p"):
                raise ConfigParseError(f"unknown field {name!r}", start)
            if name in fields:
                raise ConfigParseError(f"duplicate field {name!r}", start)
            values: list[Fraction] = []
            cursor = eq + 1
            for token in chunk[eq + 1 :].split(","):
                lead = len(token) - len(token.lstrip())
                token_pos = offset + cursor + lead
                word = token.strip()
                if not word:
                    raise ConfigParseError("empty value", token_pos)
                try:
                    values.append(parse_rational(word))
                except (ValueError, ZeroDivisionError) as exc:
                    raise ConfigParseError(str(exc), token_pos) from None
                cursor += len(token) + 1
            fields[name] = values
        offset += len(chunk) + 1
    if "a" not in fields:
        raise ConfigParseError("missing field 'a'", 0)
    a = fields["a"]
    p = fields.get("p", [])
    if len(p) != len(a) - 1:
        raise ConfigParseError(f"expected {len(a) - 1} gap distances for k={len(a)}, got {len(p)}")
    return DistanceConfig(tuple(a), tuple(p))


def serialize_config(cfg: DistanceConfig) -> str:
    a_part = "a=" + ",".join(str(x) for x in cfg.a)
    if not cfg.p:
        return a_part
    return a_part + "; p=" + ",".join(str(x) for x in cfg.p)


def config_to_dict(cfg: DistanceConfig) -> dict:
    """JSON object form: rationals as strings to preserve exactness."""
    return {
        "k": cfg.k,
        "a": [str(x) for x in cfg.a],
        "p": [str(x) for x in cfg.p],
    }


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``'s text, for dicts with str
    keys, lists, tuples, str, int, bool and None; any other type raises
    TypeError, as does a key that is not a str.  (``json.dumps`` takes its
    pure-Python encoder whenever ``indent`` is set.)"""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        parts = [_json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(parts) + indent + "]" if parts else "[]"
    if not isinstance(obj, dict):
        raise TypeError(f"cannot write {type(obj).__name__} as JSON")
    parts = [encode_basestring_ascii(key) + ": " + _json_text(obj[key], inner) for key in sorted(obj)]
    return "{" + inner + ("," + inner).join(parts) + indent + "}" if parts else "{}"


def config_from_dict(data: dict) -> DistanceConfig:
    if not all(isinstance(data.get(key, []), list) for key in ("a", "p")):
        raise ConfigParseError("'a' and 'p' must be lists of rationals")
    try:
        a = tuple(parse_rational(str(x)) for x in data["a"])
        p = tuple(parse_rational(str(x)) for x in data["p"])
    except KeyError as exc:
        raise ConfigParseError(f"missing key {exc}") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigParseError(str(exc)) from None
    cfg = DistanceConfig(a, p)
    declared = data.get("k")
    try:  # not a bool, though it is an int
        k = cfg.k if declared is None else int(declared) if type(declared) in (int, str) else None
    except ValueError:
        k = None
    if k is None:
        raise ConfigParseError("'k' must be an integer")
    if k != cfg.k:
        raise ConfigParseError(f"declared k={declared!r} but got {cfg.k} intra-pair distances")
    return cfg
