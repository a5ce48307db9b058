"""Case classification of valid configurations and the adversarial seedings
attached to each case.

Every consulted comparison must be strict; an equality raises
:class:`ClassificationTieError`.  Gap shapes: a gap is *ascending* when
a_m < p < a_{m+1}, *descending* when a_m > p > a_{m+1}, a *pit* when it is
below both neighbours and a *peak* when above both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cache

from .model import DistanceConfig, Seeding, _require_valid, mirror_seeding

UNCLASSIFIED = "UNCLASSIFIED"


class ClassificationTieError(Exception):
    """A region-defining comparison came out equal."""

    def __init__(self, description: str):
        self.description = description
        super().__init__(f"region predicate tie: {description}")


class UnclassifiedConfigError(Exception):
    """No prescribed seeding for this configuration; use exhaustive search."""


@dataclass(frozen=True)
class CaseLabel:
    """Region tag, optionally mirrored, with a gap/pair index where required.

    ``param`` is the ascending-gap position for BC and the index of the
    longest intra-pair distance for BD.
    """

    tag: str
    mirrored: bool = False
    param: int | None = None

    def __str__(self) -> str:
        text = self.tag if self.param is None else f"{self.tag}({self.param})"
        return text + ("~" if self.mirrored else "")

    def matches(self, target: str | CaseLabel) -> bool:
        """Compare against a target like ``"AA"``, ``"AB~"`` or ``"BC(3)~"``.

        A target without parentheses matches any param.  It may come parsed.
        """
        other = target if isinstance(target, CaseLabel) else CaseLabel.parse(target)
        if (self.tag, self.mirrored) != (other.tag, other.mirrored):
            return False
        return other.param is None or other.param == self.param

    @classmethod
    def parse(cls, text: str) -> CaseLabel:
        m = re.fullmatch(r"([A-Z']+)(?:\((\d+)\))?(~?)", text.strip())
        if not m:
            raise ValueError(f"bad case label {text!r}")
        tag, param, tilde = m.groups()
        return cls(tag, mirrored=bool(tilde), param=int(param) if param else None)


class PlanSemantics(Enum):
    ALL_MUST_FAIL = "all-must-fail"
    ANY_MUST_FAIL = "any-must-fail"


@dataclass(frozen=True)
class AdversarialPlan:
    """Seeding candidates and what the case claims about them.

    ``ALL_MUST_FAIL``: every candidate avoids the pairing partition.
    ``ANY_MUST_FAIL``: at least one candidate avoids it.
    """

    label: CaseLabel
    candidates: tuple[Seeding, ...]
    names: tuple[str | None, ...]
    semantics: PlanSemantics

    def __post_init__(self):
        if len(self.names) != len(self.candidates):
            raise ValueError("one name slot per candidate")
        if not self.candidates:
            raise ValueError("plan needs at least one candidate")


def _shape(left, gap, right, ties: tuple[str, str, str]) -> str | None:
    """"A" ascending, "B" descending, "CA"/"CB" a pit with 3*left below/above
    2*gap+right, None a peak; ``ties`` describes each comparison, in order."""
    if left == gap:
        raise ClassificationTieError(ties[0])
    if gap == right:
        raise ClassificationTieError(ties[1])
    if left < gap:
        return "A" if gap < right else None
    if gap > right:
        return "B"
    split = 3 * left - (2 * gap + right)
    if split == 0:
        raise ClassificationTieError(ties[2])
    return "CA" if split < 0 else "CB"


_LEFT_END = ("a1 = p12", "p12 = a2", "a1 = (2*p12+a2)/3")
_RIGHT_END = ("a4 = p34", "p34 = a3", "a4 = (2*p34+a3)/3")
_MIDDLE = ("a2 = p23", "p23 = a3", "a2 = (2*p23+a3)/3")
# The ADC split names its sides the other way round from the ends' AC split.
_MIDDLE_TAGS = {"A": "ADA", "B": "ADB", "CA": "ADCB", "CB": "ADCA", None: "ADD"}
# One shared label per (tag, mirrored, param).
_shared_label = cache(CaseLabel)


def _label4(a, p) -> CaseLabel:
    """k=4.  Precedence: the left end triple (a1, p12, a2) first; if it is a
    peak, the right end triple (a4, p34, a3) with the mirrored flag; if both
    ends are peaks, the middle triple (a2, p23, a3) decides between ADA, ADB
    (its mirror image), the ADC threshold split, and ADD."""
    a1, a2, a3, a4 = a
    p12, p23, p34 = p
    shape = _shape(a1, p12, a2, _LEFT_END)
    if shape is not None:
        return _shared_label("A" + shape)
    shape = _shape(a4, p34, a3, _RIGHT_END)
    if shape is not None:
        return _shared_label("A" + shape, mirrored=True)
    return _shared_label(_MIDDLE_TAGS[_shape(a2, p23, a3, _MIDDLE)])


def _label_k(a, p) -> CaseLabel:
    """k>4.  Precedence: BA/BB on the first gap; the smallest ascending gap
    (BC(m)); the smallest ascending gap of the mirrored configuration (BC(m)
    mirrored); all-pits (BD(i), i the unique longest intra-pair distance);
    all-peaks (BE); otherwise UNCLASSIFIED (mixed pits and peaks with no
    monotone gap, which the case analysis does not cover)."""
    k = len(a)
    gaps = range(k - 1)
    for m in gaps:
        if a[m] == p[m]:
            raise ClassificationTieError(f"a{m + 1} = p{m + 1},{m + 2}")
    for m in gaps:
        if p[m] == a[m + 1]:
            raise ClassificationTieError(f"p{m + 1},{m + 2} = a{m + 2}")
    above_left = [a[m] < p[m] for m in gaps]
    above_right = [p[m] > a[m + 1] for m in gaps]
    ascending = [m for m in gaps if above_left[m] and not above_right[m]]
    descending = [m for m in gaps if above_right[m] and not above_left[m]]
    if 0 in ascending:
        return _shared_label("BA")
    if 0 in descending:
        return _shared_label("BB")
    if ascending:
        return _shared_label("BC", param=ascending[0] + 1)
    if descending:
        # gap g of the original is gap k-g of the mirror; the smallest
        # ascending mirror gap comes from the largest descending one here
        return _shared_label("BC", mirrored=True, param=k - (max(descending) + 1))
    if not any(above_left) and not any(above_right):
        longest = max(a)
        if a.count(longest) > 1:
            raise ClassificationTieError("longest intra-pair distance is tied")
        return _shared_label("BD", param=a.index(longest) + 1)
    if all(above_left) and all(above_right):
        return _shared_label("BE")
    return _shared_label(UNCLASSIFIED)


# Gap shapes of the region sampler, on the triple (a_j, p_j, a_{j+1}): "A"
# ascending, "B" descending, "peak", "pit"; "CA"/"CB" a pit with 3*a_j
# below/above 2*p_j + a_{j+1}, "CA~"/"CB~" the same split read from a_{j+1};
# "valid" any p_j, ties included.  Every shape implies validity.
_STRICT = ("A", "B", "pit", "peak")
_END_SHAPES = {"AA": "A", "AB": "B", "ACA": "CA", "ACB": "CB"}
_MIRRORED_END = {"A": "B", "B": "A", "CA": "CA~", "CB": "CB~"}  # read from a4, as (a4, p34, a3)
_MIDDLE_SHAPES = {"ADA": "A", "ADB": "B", "ADCA": "CB", "ADCB": "CA", "ADD": "peak"}
_EVERY_GAP = {"BD": ("pit",), "BE": ("peak",), UNCLASSIFIED: ("pit", "peak")}


@cache
def gap_shapes(k: int, target: CaseLabel | None) -> tuple[tuple[str, ...], ...]:
    """Per gap, the shapes its triple may take in ``target``'s region at this k
    (None: every valid config).  Exact for every k=4 region, BA, BB, BE, BC(m)
    and BC(m)~: each config with these shapes gets the target's label.  For
    BC, BC~, BD, UNCLASSIFIED and all-valid it is a superset that
    ``label_of`` narrows down."""
    valid = ("valid",)
    if target is None:
        return (_STRICT if k > 4 else valid,) * (k - 1)
    tag, param = target.tag, target.param
    if k == 4:
        if tag in _END_SHAPES:
            end = _END_SHAPES[tag]
            if target.mirrored:
                return ("peak",), valid, (_MIRRORED_END[end],)
            return (end,), valid, valid
        return ("peak",), (_MIDDLE_SHAPES[tag],), ("peak",)
    if tag in ("BA", "BB"):
        return (("A",) if tag == "BA" else ("B",),) + (_STRICT,) * (k - 2)
    if tag in _EVERY_GAP:
        return (_EVERY_GAP[tag],) * (k - 1)
    neither = ("pit", "peak")  # gap 1 is neither ascending (BA) nor descending (BB)
    not_up = ("B", "pit", "peak")
    if not target.mirrored:  # BC(m): gap m is the first ascending one
        if param is None:
            return (neither,) + (_STRICT,) * (k - 2)
        return (neither,) + (not_up,) * (param - 2) + (("A",),) + (_STRICT,) * (k - 1 - param)
    # BC(m)~: no gap ascends, and gap k - m is the last descending one
    if param is None:
        return (neither,) + (not_up,) * (k - 2)
    last = k - param
    return (neither,) + (not_up,) * (last - 2) + (("B",),) + (neither,) * (k - 1 - last)


def label_of(a, p) -> CaseLabel:
    """Case label of a valid config with k = len(a) >= 4, given as plain
    sequences: fractions, or integer numerators over one positive denominator
    (every region predicate is homogeneous).  The caller checks validity."""
    return _label4(a, p) if len(a) == 4 else _label_k(a, p)


_SEEDS4 = {
    "AA": (2, 4, 5, 7),
    "AB": (1, 3, 5, 7),
    "ACA": (2, 4, 5, 7),
    "ACB": (1, 3, 5, 7),
    "ADA": (2, 4, 6, 7),
    "ADB": (2, 3, 5, 7),  # mirror image of the ADA seeding
    "ADCA": (2, 3, 5, 7),
    "ADCB": (2, 4, 6, 7),
}

# Candidate set for the all-peaks middle (ADD): no single seeding is claimed
# to work everywhere, but at least one of these always avoids the pairing.
PAIRING_BREAKERS = (
    ("S1", (2, 5, 7, 8)),
    ("S2", (1, 2, 4, 7)),
    ("S7", (4, 6, 7, 8)),
    ("S7'", (1, 2, 3, 5)),
)


@cache
def _adversarial_plan(label: CaseLabel, k: int) -> AdversarialPlan:
    """The prescribed seeding(s) for a label at k>=4, built once per (label, k)."""
    if label.tag == UNCLASSIFIED:
        raise UnclassifiedConfigError(
            "mixed pit/peak configuration with no monotone gap; fall back to exhaustive search"
        )
    if label.tag in ("ADD", "BE"):
        # the k=4 candidate set on the first eight points, one seed per
        # remaining pair at its odd point (no tail at k=4)
        tail = tuple(2 * j - 1 for j in range(5, k + 1))
        seeds = tuple(Seeding(base + tail) for _, base in PAIRING_BREAKERS)
        names = tuple(name for name, _ in PAIRING_BREAKERS)
        return AdversarialPlan(label, seeds, names, PlanSemantics.ANY_MUST_FAIL)
    if label.tag in _SEEDS4:
        seeding = Seeding(_SEEDS4[label.tag])
    elif label.tag == "BA":
        seeding = Seeding((2, 4) + tuple(2 * j - 1 for j in range(3, k + 1)))
    elif label.tag == "BB":
        seeding = Seeding((1,) + tuple(2 * j - 1 for j in range(2, k + 1)))
    elif label.tag == "BC":
        assert label.param is not None
        m = label.param
        indices = tuple(2 * j for j in range(1, m + 1)) + (2 * m + 2,)
        indices += tuple(2 * j - 1 for j in range(m + 2, k + 1))
        seeding = Seeding(indices)
    else:  # BD
        assert label.param is not None
        i = label.param
        indices = tuple(2 * j - 1 for j in range(1, i + 1))
        indices += tuple(2 * j - 2 for j in range(i + 1, k + 1))
        seeding = Seeding(indices)
    if label.mirrored:
        seeding = mirror_seeding(seeding, k)
    return AdversarialPlan(label, (seeding,), (None,), PlanSemantics.ALL_MUST_FAIL)


def classify(cfg: DistanceConfig) -> CaseLabel:
    """Case label of a valid configuration; no case analysis exists below k=4."""
    if cfg.k < 4:
        raise ValueError(f"no case analysis for k={cfg.k}")
    _require_valid(cfg)
    a, p, _den = cfg._ints
    return label_of(a, p)


def adversarial_plan(cfg: DistanceConfig) -> AdversarialPlan:
    """The prescribed seeding(s) for a valid configuration's case."""
    label = classify(cfg)
    return _adversarial_plan(label, cfg.k)
