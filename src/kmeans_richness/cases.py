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


def _shape(left, gap, right, ties: tuple[str, str, str]) -> str:
    """"A" ascending, "B" descending, "CA"/"CB" a pit with 3*left below/above
    2*gap+right, "peak"; ``ties`` describes each comparison, in order."""
    if left == gap:
        raise ClassificationTieError(ties[0])
    if gap == right:
        raise ClassificationTieError(ties[1])
    if left < gap:
        return "A" if gap < right else "peak"
    if gap > right:
        return "B"
    split = 3 * left - (2 * gap + right)
    if split == 0:
        raise ClassificationTieError(ties[2])
    return "CA" if split < 0 else "CB"


_LEFT_END = ("a1 = p12", "p12 = a2", "a1 = (2*p12+a2)/3")
_RIGHT_END = ("a4 = p34", "p34 = a3", "a4 = (2*p34+a3)/3")
_MIDDLE = ("a2 = p23", "p23 = a3", "a2 = (2*p23+a3)/3")
# A gap's shape from its triple (a_j, p_j, a_{j+1}), read as (a_j < p_j, p_j > a_{j+1}).
_GAP_SHAPES = {(True, False): "A", (False, True): "B", (False, False): "pit", (True, True): "peak"}
# k=4 tags by an end's shape, or the middle's, and the regions they list, each
# end tag with its mirror.  The ADC split names its sides the other way round.
_END_TAGS = {"A": "AA", "B": "AB", "CA": "ACA", "CB": "ACB"}
_MIDDLE_TAGS = {"A": "ADA", "B": "ADB", "CB": "ADCA", "CA": "ADCB", "peak": "ADD"}
_REGIONS4 = (
    *(CaseLabel(tag, mirrored) for tag in _END_TAGS.values() for mirrored in (False, True)),
    *map(CaseLabel, _MIDDLE_TAGS.values()),
)
# The k>4 regions.
_REGIONS = (
    *map(CaseLabel, ("BA", "BB", "BC")),
    CaseLabel("BC", mirrored=True),
    *map(CaseLabel, ("BD", "BE", UNCLASSIFIED)),
)
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
    if shape != "peak":
        return _shared_label(_END_TAGS[shape])
    shape = _shape(a4, p34, a3, _RIGHT_END)
    if shape != "peak":
        return _shared_label(_END_TAGS[shape], mirrored=True)
    return _shared_label(_MIDDLE_TAGS[_shape(a2, p23, a3, _MIDDLE)])


def _label_k(a, p) -> CaseLabel:
    """k>4, a fold over the gaps' shapes: BA/BB on the first gap; the first
    ascending gap (BC(m)); the last descending one, the mirror's first
    ascending gap (BC(m)~); all pits (BD(i), i the unique longest intra-pair
    distance); all peaks (BE); else UNCLASSIFIED (mixed pits and peaks with
    no monotone gap, which the case analysis does not cover)."""
    k = len(a)
    gaps = range(k - 1)
    for m in gaps:
        if a[m] == p[m]:
            raise ClassificationTieError(f"a{m + 1} = p{m + 1},{m + 2}")
    for m in gaps:
        if p[m] == a[m + 1]:
            raise ClassificationTieError(f"p{m + 1},{m + 2} = a{m + 2}")
    shapes = [_GAP_SHAPES[a[m] < p[m], p[m] > a[m + 1]] for m in gaps]
    if shapes[0] in ("A", "B"):  # BA: the first gap ascends, BB: it descends
        return _shared_label("B" + shapes[0])
    if "A" in shapes:
        return _shared_label("BC", param=shapes.index("A") + 1)
    if "B" in shapes:  # gap g of the original is gap k-g of the mirror
        return _shared_label("BC", mirrored=True, param=shapes[::-1].index("B") + 1)
    if shapes.count("pit") == k - 1:
        longest = max(a)
        if a.count(longest) > 1:
            raise ClassificationTieError("longest intra-pair distance is tied")
        return _shared_label("BD", param=a.index(longest) + 1)
    if shapes.count("peak") == k - 1:
        return _shared_label("BE")
    return _shared_label(UNCLASSIFIED)


def label_of(a, p) -> CaseLabel:
    """Case label of a valid config with k = len(a) >= 4, given as plain
    sequences: fractions, or integer numerators over one positive denominator
    (every region predicate is homogeneous).  The caller checks validity.
    The label is a fold over the gaps' shapes, the vocabulary of ``gap_shapes``."""
    return _label4(a, p) if len(a) == 4 else _label_k(a, p)


@cache
def _region_targets(k: int) -> tuple[str, ...]:
    """Every label the classifier returns at this k, as text, without params
    (plus mirrored end variants); "all-valid" below k=4."""
    return tuple(map(str, _REGIONS4 if k == 4 else _REGIONS if k > 4 else ())) or ("all-valid",)


@cache
def _region(k: int, target: str) -> CaseLabel | None:
    """The parsed ``target`` of a k-region, None for "all-valid"; a
    ``ValueError`` for a target ``label_of`` never returns at this k."""
    if target == "all-valid":
        return None
    label = CaseLabel.parse(target)  # fail fast on bad label syntax
    if k < 4:
        raise ValueError(f"labeled regions need k >= 4, got k={k}")
    targets = _region_targets(k)
    region = str(CaseLabel(label.tag, label.mirrored))
    if region not in targets:
        raise ValueError(f"no k={k} region {target}; use {', '.join(targets)}")
    params = _region_params(k, label)
    if label.param is not None and label.param not in params:
        allowed = f"{params[0]}..{params[-1]}" if params else "none"
        raise ValueError(f"no k={k} region {target}; params of {region}: {allowed}")
    return label


def _region_params(k: int, label: CaseLabel) -> range:
    """The params ``label_of`` gives ``label``'s (tag, mirrored) at this k:
    the first ascending gap for BC (gap 1 would be BA), counted on the
    mirror for BC~ (its gap k-1 is gap 1 of the original, which would be
    BB), and the index of the longest intra-pair distance for BD."""
    if k > 4 and label.tag == "BC":
        return range(1, k - 1) if label.mirrored else range(2, k)
    if k > 4 and label.tag == "BD":
        return range(1, k + 1)
    return range(0)


# The sampler's gap shapes: ``_shape``'s, "pit", "CA~"/"CB~" (the AC split read
# from a_{j+1}) and "valid" (any p_j, ties included).  Each implies validity.
_STRICT = tuple(_GAP_SHAPES.values())
_MIRRORED_END = {"A": "B", "B": "A", "CA": "CA~", "CB": "CB~"}  # read from a4, as (a4, p34, a3)
_EVERY_GAP = {"BD": ("pit",), "BE": ("peak",), UNCLASSIFIED: ("pit", "peak")}


@cache
def gap_shapes(k: int, target: CaseLabel | None) -> tuple[tuple[str, ...], ...]:
    """Per gap, the shapes its triple may take in ``target``'s region at this k
    (None: every valid config), in ``label_of``'s terms.  Exact for every k=4
    region, BA, BB, BE, BC(m) and BC(m)~: each config with these shapes gets
    the target's label.  For BC, BC~, BD, UNCLASSIFIED and all-valid it is a
    superset that ``label_of`` narrows down."""
    valid = ("valid",)
    if target is None:
        return (_STRICT if k > 4 else valid,) * (k - 1)
    tag, param = target.tag, target.param
    if k == 4:
        end = {t: shape for shape, t in _END_TAGS.items()}.get(tag)
        if end is None:  # both ends are peaks
            return ("peak",), ({t: s for s, t in _MIDDLE_TAGS.items()}[tag],), ("peak",)
        if target.mirrored:
            return ("peak",), valid, (_MIRRORED_END[end],)
        return (end,), valid, valid
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


def _p_range(shape: str, x0: int, x1: int, y0: int, y1: int, bound: int) -> tuple[int, int]:
    """(lo, hi) such that every p_j in 1..bound that gives the triple (a_j,
    p_j, a_{j+1}) ``shape``, for some a_j in [x0, x1] and a_{j+1} in [y0, y1],
    lies in [lo, hi]; for single values, exactly those p_j do.  Each end is
    bounded term by term over the box."""
    lo, hi = max(0, x0 - y1, y0 - x1) // 2 + 1, bound  # validity: 2p > |a_j - a_{j+1}|
    if shape == "A":
        lo, hi = max(lo, x0 + 1), min(hi, y1 - 1)
    elif shape == "B":
        lo, hi = max(lo, y0 + 1), min(hi, x1 - 1)
    elif shape == "peak":
        lo = max(lo, x0 + 1, y0 + 1)
    elif shape != "valid":  # a pit, maybe split
        hi = min(hi, x1 - 1, y1 - 1)
        if shape == "CA":
            lo = max(lo, (3 * x0 - y1) // 2 + 1)
        elif shape == "CB":
            hi = min(hi, (3 * x1 - y0 - 1) // 2)
        elif shape == "CA~":
            lo = max(lo, (3 * y0 - x1) // 2 + 1)
        elif shape == "CB~":
            hi = min(hi, (3 * y1 - x0 - 1) // 2)
    return lo, hi


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
    _require_valid(cfg)
    if cfg.k < 4:
        raise ValueError(f"no case analysis for k={cfg.k}")
    a, p, _den = cfg._ints
    return label_of(a, p)


def adversarial_plan(cfg: DistanceConfig) -> AdversarialPlan:
    """The prescribed seeding(s) for a valid configuration's case."""
    label = classify(cfg)
    return _adversarial_plan(label, cfg.k)
