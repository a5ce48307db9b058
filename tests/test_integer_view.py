"""The integer view of a config against plain ``Fraction`` arithmetic.

``DistanceConfig`` keeps its entries as integers over one denominator (the
lcm of theirs), and validity, classification, embedding and the engine's
scaled positions run on those integers.  Every test here recomputes the same
answer from the ``Fraction`` entries alone, on configs with mixed
denominators 1..6, and requires the two to agree exactly.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from kmeans_richness import cases, model
from kmeans_richness.cases import ClassificationTieError
from kmeans_richness.lloyd import LineEngine
from kmeans_richness.model import (
    DistanceConfig,
    NonPositiveDistanceError,
    PointSet,
    Seeding,
    embed,
    validate,
)


def entries(low):
    return st.builds(Fraction, st.integers(low, 12), st.integers(1, 6))


@st.composite
def raw_configs(draw, low=-2, min_k=1, max_k=7):
    """(a, p) of one k: entries num/den with den in 1..6, maybe not positive."""
    k = draw(st.integers(min_k, max_k))
    a = draw(st.lists(entries(low), min_size=k, max_size=k))
    p = draw(st.lists(entries(low), min_size=k - 1, max_size=k - 1))
    return tuple(a), tuple(p)


def configs(min_k=1, max_k=7):
    return raw_configs(1, min_k, max_k).map(lambda ap: DistanceConfig(*ap))


@st.composite
def valid_configs(draw, min_k=4, max_k=7):
    """Valid by construction: each p_j is |a_j - a_(j+1)|/2 plus a positive entry."""
    a, _p = draw(raw_configs(1, min_k, max_k))
    p = tuple(abs(x - y) / 2 + draw(entries(1)) for x, y in zip(a, a[1:]))
    return DistanceConfig(a, p)


# --- plain Fraction references ---------------------------------------------------


def reference_positions(a, p):
    pos = [Fraction(0)]
    for j, distance in enumerate(a):
        pos.append(pos[-1] + distance)
        if j < len(p):
            pos.append(pos[-1] + p[j])
    return tuple(pos)


def reference_non_positive(a, p):
    """The message for the first entry <= 0, or None when all are positive."""
    for value in a + p:
        if value <= 0:
            return f"non-positive distance {value}"
    return None


def outcome(call, *args):
    """What ``call`` returns, or the type and text of what it raises."""
    try:
        return ("ok", call(*args))
    except (ValueError, ClassificationTieError) as exc:
        description = getattr(exc, "description", None)
        return (type(exc).__name__, str(exc), description)


# --- tests -------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(raw_configs())
def test_non_positive_message_matches_reference(ap):
    a, p = ap
    expected = reference_non_positive(a, p)
    if expected is None:
        DistanceConfig(a, p)
    else:
        with pytest.raises(NonPositiveDistanceError) as info:
            DistanceConfig(a, p)
        assert str(info.value) == expected


@settings(max_examples=300, deadline=None)
@given(configs())
def test_embed_matches_fraction_sums(cfg):
    positions = embed(cfg).positions
    assert positions == reference_positions(cfg.a, cfg.p)
    assert all(type(x) is Fraction for x in positions)


@settings(max_examples=300, deadline=None)
@given(configs())
def test_engine_from_view_matches_embedded_engine(cfg):
    engine = LineEngine._of_config(cfg)
    reference = LineEngine(embed(cfg))
    assert engine._xs == reference._xs and engine._den == reference._den
    assert engine._prefix == reference._prefix
    assert all(type(x) is int for x in engine._xs)
    seeding = Seeding(tuple(range(1, 2 * cfg.k + 1, 2)))  # the odd points
    assert engine.run_strict(seeding) == reference.run_strict(seeding)


@settings(max_examples=300, deadline=None)
@given(configs(), entries(-12), entries(1))
def test_point_set_view_is_over_lcm(cfg, offset, factor):
    points = embed(cfg)
    public = PointSet(points.positions)  # through the checking constructor
    assert points._ints == public._ints == model._over_lcm(points.positions)
    assert points == public and hash(points) == hash(public) and repr(points) == repr(public)
    for moved in (points.translate(offset), points.scale(factor), public.translate(-offset)):
        assert moved._ints == model._over_lcm(moved.positions)
        assert LineEngine(moved)._xs == moved._ints[0]


@settings(max_examples=300, deadline=None)
@given(st.lists(entries(-12), min_size=1, max_size=9, unique=True))
def test_public_point_set_view_is_over_lcm(positions):
    points = PointSet(sorted(positions))
    xs, den = points._ints
    assert (xs, den) == model._over_lcm(points.positions)
    engine = LineEngine(points)
    assert (engine._xs, engine._den) == (xs, den)


@pytest.mark.parametrize(
    "positions", [(0, 0), (1, 0), (0, "1/2", "1/2"), ("1/3", "1/4"), (-1, -2), (0, 2, 1, 3)]
)
def test_non_increasing_point_set_message(positions):
    with pytest.raises(ValueError) as info:
        PointSet(positions)
    assert str(info.value) == "positions must be strictly increasing"


def test_point_set_view_is_not_a_field():
    points = PointSet(("1/2", "2/3", 1))
    assert points._ints == ((3, 4, 6), 6)
    assert points == PointSet((Fraction(1, 2), Fraction(2, 3), 1))
    assert hash(points) == hash((points.positions,))
    assert repr(points) == "PointSet(positions=(Fraction(1, 2), Fraction(2, 3), Fraction(1, 1)))"


@settings(max_examples=300, deadline=None)
@given(configs())
def test_require_valid_matches_validate(cfg):
    report = validate(cfg)
    if report.valid:
        model._require_valid(cfg)
    else:
        with pytest.raises(ValueError) as info:
            model._require_valid(cfg)
        assert str(info.value) == (
            "config not valid: |a_j - a_(j+1)| < 2*p constraint fails at gaps"
            f" {list(report.violations)}"
        )


@settings(max_examples=400, deadline=None)
@given(st.one_of(configs(min_k=4, max_k=7), valid_configs()))
def test_classify_matches_fraction_labels(cfg):
    got = outcome(cases.classify, cfg)
    if validate(cfg).valid:
        expected = outcome(cases.label_of, cfg.a, cfg.p)
    else:
        expected = outcome(model._require_valid, cfg)
    assert got == expected
    if got[0] != "ok":
        assert outcome(cases.adversarial_plan, cfg) == got
    elif got[1].tag != cases.UNCLASSIFIED:
        assert cases.adversarial_plan(cfg).label == got[1]


@settings(max_examples=300, deadline=None)
@given(st.lists(entries(-12), min_size=1, max_size=9))
def test_over_lcm_matches_fraction_products(positions):
    xs, den = model._over_lcm(positions)
    assert den == lcm(*(x.denominator for x in positions))
    assert all(type(x) is int for x in xs)
    assert [Fraction(x, den) for x in xs] == positions


def test_view_is_not_a_field():
    cfg = DistanceConfig((Fraction(1, 2), 1), (Fraction(2, 3),))
    assert cfg._ints == ((3, 6), (4,), 6)
    assert cfg == DistanceConfig(("1/2", 1), ("2/3",))
    assert hash(cfg) == hash((cfg.a, cfg.p))
    assert repr(cfg) == "DistanceConfig(a=(Fraction(1, 2), Fraction(1, 1)), p=(Fraction(2, 3),))"


def test_classify_tie_across_denominators():
    # the left end is a pit with 3*a1 = 2*p12 + a2: 7/6 on both sides
    cfg = DistanceConfig((Fraction(7, 18), Fraction(1, 2), 1, 1), (Fraction(1, 3), 1, 1))
    assert cfg._ints[2] == 18
    with pytest.raises(ClassificationTieError) as info:
        cases.classify(cfg)
    assert info.value.description == "a1 = (2*p12+a2)/3"
