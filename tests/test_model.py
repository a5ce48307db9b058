"""Model layer: configs, embedding, partitions, seedings, formats."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kmeans_richness.model import (
    ConfigParseError,
    DistanceConfig,
    NonPositiveDistanceError,
    Partition,
    PointSet,
    Seeding,
    _json_text,
    config_from_dict,
    config_to_dict,
    embed,
    format_rational,
    mirror,
    mirror_seeding,
    parse_config,
    parse_rational,
    scale_config,
    serialize_config,
    target_partition,
    validate,
)

positive_rationals = st.fractions(min_value=Fraction(1, 97), max_value=50)


def config_strategy(min_k=2, max_k=6):
    return st.integers(min_k, max_k).flatmap(
        lambda k: st.tuples(
            st.lists(positive_rationals, min_size=k, max_size=k),
            st.lists(positive_rationals, min_size=k - 1, max_size=k - 1),
        ).map(lambda ap: DistanceConfig(tuple(ap[0]), tuple(ap[1])))
    )


class TestRational:
    def test_parse_forms(self):
        assert parse_rational("3") == 3
        assert parse_rational("-7") == -7
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational(" 6/4 ") == Fraction(3, 2)

    def test_parse_rejects_decimals(self):
        with pytest.raises(ValueError):
            parse_rational("1.5")

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("3/0")

    def test_format_is_canonical(self):
        assert format_rational(Fraction(6, 4)) == "3/2"
        assert format_rational(Fraction(8, 2)) == "4"

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            DistanceConfig((1.5, 1.0), (2.0,))


class TestDistanceConfig:
    def test_basic(self):
        cfg = DistanceConfig((1, 3, 3, 1), (2, 2, 2))
        assert cfg.k == 4
        assert cfg.n_points == 8
        assert cfg.a == (1, 3, 3, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DistanceConfig((1, 2), (1, 1))

    def test_empty(self):
        with pytest.raises(ValueError, match=r"^need at least one intra-pair distance$"):
            DistanceConfig((), ())

    def test_non_positive(self):
        with pytest.raises(NonPositiveDistanceError):
            DistanceConfig((0, 1), (1,))
        with pytest.raises(NonPositiveDistanceError):
            DistanceConfig((1, 1), (-2,))

    def test_single_pair_config(self):
        cfg = DistanceConfig((5,), ())
        assert cfg.k == 1
        assert validate(cfg).valid


class TestOfInts:
    """``DistanceConfig._of_ints`` against the public constructor."""

    @staticmethod
    def _check(a, p):
        cfg = DistanceConfig._of_ints(a, p)
        ref = DistanceConfig(tuple(map(Fraction, a)), tuple(map(Fraction, p)))
        assert (cfg.a, cfg.p) == (ref.a, ref.p)
        assert all(type(x) is Fraction for x in cfg.a + cfg.p)
        assert cfg._ints == ref._ints
        assert cfg == ref and hash(cfg) == hash(ref)
        assert repr(cfg) == repr(ref)

    @pytest.mark.parametrize("factor", range(1, 7))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_constructor(self, k, factor):
        # entries that share a common factor keep it: the view is not reduced
        rng = random.Random(100 * k + factor)
        for _ in range(40):
            a = [factor * rng.randint(1, 30) for _ in range(k)]
            p = [factor * rng.randint(1, 30) for _ in range(k - 1)]
            self._check(a, p)

    def test_lists_become_tuples(self):
        cfg = DistanceConfig._of_ints([2, 4], [6])
        assert cfg._ints == ((2, 4), (6,), 1)
        assert cfg.a == (2, 4) and cfg.p == (6,)


class TestEmbed:
    def test_prefix_sums(self):
        assert embed(DistanceConfig((1, 3, 3, 1), (2, 2, 2))).positions == (0, 1, 3, 6, 8, 11, 13, 14)

    def test_two_pairs(self):
        assert embed(DistanceConfig((1, 1), (10,))).positions == (0, 1, 11, 12)

    def test_uniform(self):
        assert embed(DistanceConfig((1, 1, 1, 1), (3, 3, 3))).positions == (0, 1, 4, 5, 8, 9, 12, 13)

    @given(config_strategy())
    def test_mirror_embedding_is_reflection(self, cfg):
        pos = embed(cfg).positions
        total = pos[-1]
        reflected = tuple(total - x for x in reversed(pos))
        assert embed(mirror(cfg)).positions == reflected


class TestValidate:
    def test_valid(self):
        assert validate(DistanceConfig((1, 3, 3, 1), (2, 2, 2))).valid

    def test_violated_gap(self):
        report = validate(DistanceConfig((5, 1, 1, 1), (1, 1, 1)))
        assert not report.valid
        assert report.exceeded == (1,)
        assert report.tied == ()

    def test_tied_gap_reported_not_valid(self):
        report = validate(DistanceConfig((3, 1, 1, 1), (1, 1, 1)))
        assert not report.valid
        assert report.tied == (1,)
        assert report.exceeded == ()

    @given(config_strategy())
    def test_mirror_symmetric(self, cfg):
        assert validate(cfg).valid == validate(mirror(cfg)).valid


class TestTargetPartition:
    def test_k4(self):
        assert target_partition(4).labels == (0, 0, 1, 1, 2, 2, 3, 3)

    def test_k1(self):
        assert target_partition(1).labels == (0, 0)

    def test_k5(self):
        assert target_partition(5).labels == (0, 0, 1, 1, 2, 2, 3, 3, 4, 4)

    def test_built_once_per_k(self):
        for k in range(1, 9):
            assert target_partition(k) is target_partition(k)
            assert target_partition(k).labels == Partition(tuple(i // 2 for i in range(2 * k))).labels

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            target_partition(0)


class TestMirror:
    def test_config_reversal(self):
        m = mirror(DistanceConfig((1, 2, 3, 4), (5, 6, 7)))
        assert m.a == (4, 3, 2, 1)
        assert m.p == (7, 6, 5)

    def test_self_mirror_seeding(self):
        assert mirror_seeding(Seeding((2, 4, 5, 7)), 4).indices == (2, 4, 5, 7)

    def test_odd_seeding(self):
        assert mirror_seeding(Seeding((1, 3, 5, 7)), 4).indices == (2, 4, 6, 8)

    @given(config_strategy())
    def test_involution(self, cfg):
        assert mirror(mirror(cfg)) == cfg

    def test_seed_past_2k_rejected(self):
        with pytest.raises(ValueError, match="seed index 9 out of range for k=4"):
            mirror_seeding(Seeding((1, 9)), 4)

    @given(st.sets(st.integers(1, 12), min_size=2, max_size=6))
    def test_seeding_involution(self, indices):
        seeding = Seeding(tuple(indices))
        assert mirror_seeding(mirror_seeding(seeding, 6), 6) == seeding


class TestPartition:
    def test_canonicalization_idempotent_examples(self):
        p = Partition((3, 3, 0, 0, 5, 5))
        assert p.canonical_labels() == (0, 0, 1, 1, 2, 2)
        assert p.canonical().canonical() == p.canonical()

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=14))
    def test_canonicalization_idempotent(self, labels):
        p = Partition(tuple(labels))
        assert p.canonical().canonical_labels() == p.canonical_labels()

    def test_equality_by_structure(self):
        assert Partition((1, 1, 0, 0)) == Partition((0, 0, 1, 1))
        assert hash(Partition((1, 1, 0, 0))) == hash(Partition((0, 0, 1, 1)))
        assert Partition((0, 0, 1, 1)) != Partition((0, 1, 1, 1))

    def test_empty_block_never_equals_target(self):
        # four cluster ids but one unused: only three non-empty blocks
        p = Partition((0, 0, 1, 1, 2, 2, 2, 2))
        assert p != target_partition(4)

    def test_blocks(self):
        p = Partition((1, 1, 0, 2))
        assert p.blocks() == ((1, 2), (3,), (4,))

    def test_contiguity(self):
        assert Partition((0, 0, 1, 1)).is_contiguous()
        assert not Partition((0, 1, 0, 1)).is_contiguous()

    def test_empty_or_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="empty partition"):
            Partition(())
        with pytest.raises(ValueError, match="cluster ids must be non-negative"):
            Partition((0, -1))

    def test_equality_with_a_non_partition(self):
        assert Partition((0,)).__eq__(3) is NotImplemented
        assert Partition((0,)) != 3

    def test_labels_must_be_integers(self):
        assert Partition((True, False)).labels == (1, 0)
        assert type(Partition((True, False)).labels[0]) is int
        for labels in ((0.7, 1.2), ("0", "1")):
            with pytest.raises(TypeError):
                Partition(labels)


class TestSeeding:
    def test_sorted_and_distinct(self):
        assert Seeding((7, 2, 4, 5)).indices == (2, 4, 5, 7)
        with pytest.raises(ValueError):
            Seeding((1, 1, 2, 3))
        with pytest.raises(ValueError):
            Seeding((0, 1))

    def test_indices_must_be_integers(self):
        # no truncation or parsing: (2.9, 4.1) is not {2,4}
        assert Seeding((True, 3)).indices == (1, 3)
        for indices in ((2.9, 4.1), ("2", "4")):
            with pytest.raises(TypeError):
                Seeding(indices)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty seeding"):
            Seeding(())

    def test_str(self):
        assert str(Seeding((2, 4, 5, 7))) == "{2,4,5,7}"


class TestPointSet:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty point set"):
            PointSet(())

    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            PointSet((0, 0, 1))
        with pytest.raises(ValueError):
            PointSet((3, 2))

    def test_one_based_access(self):
        points = PointSet((0, 5, 9))
        assert points.position(1) == 0
        assert points.position(3) == 9
        with pytest.raises(IndexError):
            points.position(4)

    def test_translate_scale(self):
        points = PointSet((0, 2))
        assert points.translate(Fraction(1, 2)).positions == (Fraction(1, 2), Fraction(5, 2))
        assert points.scale(3).positions == (0, 6)
        with pytest.raises(ValueError):
            points.scale(-1)


class TestTextFormat:
    def test_parse_basic(self):
        cfg = parse_config("a=1,3,3,1; p=2,2,2")
        assert cfg.k == 4
        assert cfg.a == (1, 3, 3, 1)
        assert cfg.p == (2, 2, 2)

    def test_parse_fractions(self):
        cfg = parse_config("a=1/2,1; p=3/4")
        assert cfg.k == 2
        assert cfg.a == (Fraction(1, 2), 1)
        assert cfg.p == (Fraction(3, 4),)

    def test_parse_non_positive(self):
        with pytest.raises(NonPositiveDistanceError):
            parse_config("a=0,1; p=1")

    def test_parse_error_carries_position(self):
        with pytest.raises(ConfigParseError) as info:
            parse_config("a=1,x,3,1; p=2,2,2")
        assert info.value.position == 4

    def test_parse_k1_without_p(self):
        assert parse_config("a=5").k == 1

    def test_parse_gap_count_mismatch(self):
        with pytest.raises(ConfigParseError):
            parse_config("a=1,2,3; p=1")

    def test_parse_unknown_field(self):
        with pytest.raises(ConfigParseError):
            parse_config("a=1,2; q=3")

    def test_serialize(self):
        cfg = DistanceConfig((1, Fraction(3, 2), 3, 1), (2, 2, 2))
        assert serialize_config(cfg) == "a=1,3/2,3,1; p=2,2,2"

    @given(config_strategy(min_k=1))
    def test_roundtrip(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg

    def test_canonical_text_is_stable(self):
        for text in ("a=1,3/2,3,1; p=2,2,2", "a=5", "a=1/2,1; p=3/4"):
            assert serialize_config(parse_config(text)) == text


class TestJsonFormat:
    def test_to_dict(self):
        cfg = DistanceConfig((1, Fraction(3, 2)), (2,))
        assert config_to_dict(cfg) == {"k": 2, "a": ["1", "3/2"], "p": ["2"]}

    @given(config_strategy(min_k=1))
    def test_roundtrip(self, cfg):
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_k_mismatch_rejected(self):
        with pytest.raises(ConfigParseError):
            config_from_dict({"k": 3, "a": ["1", "2"], "p": ["1"]})

    @pytest.mark.parametrize("k", [True, "x", 1.0, [1]])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ConfigParseError, match="^'k' must be an integer$"):
            config_from_dict({"k": k, "a": ["1"], "p": []})

    def test_k_as_integer_text(self):
        assert config_from_dict({"k": "2", "a": ["1", "2"], "p": ["1"]}).k == 2
        with pytest.raises(ConfigParseError, match="declared k='3'"):
            config_from_dict({"k": "3", "a": ["1", "2"], "p": ["1"]})


# strings with non-ASCII text, quotes, backslashes and control characters
json_strings = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7fé€😀ab') | st.characters(), max_size=8)
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | json_strings
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(json_strings, children, max_size=4),
    max_leaves=40,
)


class TestJsonText:
    """``_json_text`` against ``json.dumps(o, sort_keys=True, indent=2)``."""

    @given(json_trees)
    def test_matches_json_dumps(self, obj):
        assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "obj", [{}, [], (), {"a": {}, "b": [[], ()]}, [[[]]], "", 0, -(2**70), None, True, False]
    )
    def test_empty_and_scalar(self, obj):
        assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "obj",
        [1.5, [0.0], {"x": float("nan")}, {1, 2}, [frozenset()], Fraction(1, 2)]
        + [{1: "x"}, {1: 0, "a": 1}, {"a": {None: 1}}],  # keys that are not str
    )
    def test_other_types_raise(self, obj):
        with pytest.raises(TypeError):
            _json_text(obj)


class TestScaleConfig:
    def test_scale(self):
        cfg = scale_config(DistanceConfig((1, 2), (3,)), Fraction(1, 2))
        assert cfg.a == (Fraction(1, 2), 1)
        with pytest.raises(ValueError):
            scale_config(cfg, 0)
