"""Integer-native sampling and classification against slow Fraction references.

The sampler and the case analysis work on the raw ``randint`` numerators,
which the sampler reads with ``getrandbits`` as ``randint`` does.  The
references below are the straightforward versions: ``randint`` per entry,
one ``Fraction`` config per draw, thresholds as ``(2*gap + right)/3``, and
every comparison made on fractions.  For the same RNG they must pick the
same configs and consume the same stream; on every config they must give
the same label or the same tie.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kmeans_richness import cases
from kmeans_richness.cases import UNCLASSIFIED, CaseLabel, ClassificationTieError
from kmeans_richness.model import DistanceConfig
from kmeans_richness.verify import (
    RegionExhaustedError,
    RegionSpec,
    default_regions,
    sample_config,
)

# --- reference: Fraction arithmetic throughout --------------------------------


def reference_valid(cfg):
    return all(abs(cfg.a[j] - cfg.a[j + 1]) < 2 * cfg.p[j] for j in range(cfg.k - 1))


def _strict_cmp(lhs, rhs, description):
    if lhs == rhs:
        raise ClassificationTieError(description)
    return -1 if lhs < rhs else 1


def _end_tag(left, gap, right, names):
    c1 = _strict_cmp(left, gap, f"{names[0]} = {names[1]}")
    c2 = _strict_cmp(gap, right, f"{names[1]} = {names[2]}")
    if c1 < 0 and c2 < 0:
        return "AA"
    if c1 > 0 and c2 > 0:
        return "AB"
    if c1 > 0 and c2 < 0:
        threshold = (2 * gap + right) / 3
        c3 = _strict_cmp(left, threshold, f"{names[0]} = (2*{names[1]}+{names[2]})/3")
        return "ACA" if c3 < 0 else "ACB"
    return None


def _reference_classify4(cfg):
    a1, a2, a3, a4 = cfg.a
    p12, p23, p34 = cfg.p
    tag = _end_tag(a1, p12, a2, ("a1", "p12", "a2"))
    if tag is not None:
        return CaseLabel(tag)
    tag = _end_tag(a4, p34, a3, ("a4", "p34", "a3"))
    if tag is not None:
        return CaseLabel(tag, mirrored=True)
    c1 = _strict_cmp(a2, p23, "a2 = p23")
    c2 = _strict_cmp(p23, a3, "p23 = a3")
    if c1 < 0 and c2 < 0:
        return CaseLabel("ADA")
    if c1 > 0 and c2 > 0:
        return CaseLabel("ADB")
    if c1 > 0 and c2 < 0:
        threshold = (2 * p23 + a3) / 3
        c3 = _strict_cmp(a2, threshold, "a2 = (2*p23+a3)/3")
        return CaseLabel("ADCA" if c3 > 0 else "ADCB")
    return CaseLabel("ADD")


def _reference_classify_k(cfg):
    k = cfg.k
    a, p = cfg.a, cfg.p
    left = [_strict_cmp(a[m], p[m], f"a{m + 1} = p{m + 1},{m + 2}") for m in range(k - 1)]
    right = [_strict_cmp(p[m], a[m + 1], f"p{m + 1},{m + 2} = a{m + 2}") for m in range(k - 1)]
    ascending = [m for m in range(k - 1) if left[m] < 0 and right[m] < 0]
    descending = [m for m in range(k - 1) if left[m] > 0 and right[m] > 0]
    if 0 in ascending:
        return CaseLabel("BA")
    if 0 in descending:
        return CaseLabel("BB")
    if ascending:
        return CaseLabel("BC", param=ascending[0] + 1)
    if descending:
        return CaseLabel("BC", mirrored=True, param=k - (max(descending) + 1))
    if all(left[m] > 0 and right[m] < 0 for m in range(k - 1)):
        longest = max(a)
        if a.count(longest) > 1:
            raise ClassificationTieError("longest intra-pair distance is tied")
        return CaseLabel("BD", param=a.index(longest) + 1)
    if all(left[m] < 0 and right[m] > 0 for m in range(k - 1)):
        return CaseLabel("BE")
    return CaseLabel(UNCLASSIFIED)


def reference_classify(cfg):
    """Label of a valid k>=4 config, every comparison on fractions."""
    return _reference_classify4(cfg) if cfg.k == 4 else _reference_classify_k(cfg)


def reference_sample_config(spec, rng, max_rejections):
    """One Fraction config per draw, tested with the references above."""
    k, den, bound = spec.k, spec.denominator, spec.bound
    for _ in range(max_rejections):
        a = tuple(Fraction(rng.randint(1, bound), den) for _ in range(k))
        p = tuple(Fraction(rng.randint(1, bound), den) for _ in range(k - 1))
        cfg = DistanceConfig(a, p)
        if not reference_valid(cfg):
            continue
        if k >= 4:
            try:
                label = reference_classify(cfg)
            except ClassificationTieError:
                continue
            if spec.target != "all-valid" and not label.matches(spec.target):
                continue
        return cfg
    raise RegionExhaustedError(spec.name)


# --- sampler: same configs, same stream ---------------------------------------

# Enough draws for ADCB (about 670 per acceptance at bound 50); a region that
# is empty at a small bound exhausts both samplers after this many.
MAX_REJECTIONS = 2_000


def _outcome(sampler, spec, seed, max_rejections=MAX_REJECTIONS):
    rng = random.Random(seed)
    try:
        result = sampler(spec, rng, max_rejections)
    except RegionExhaustedError:
        result = RegionExhaustedError
    return result, rng.getstate()


@pytest.mark.parametrize("denominator", [1, 5])
@pytest.mark.parametrize("bound", [2, 4, 12, 50])
@pytest.mark.parametrize("k", [4, 5, 6])
def test_sampler_matches_reference(k, bound, denominator):
    exhausted = 0
    for index, region in enumerate(default_regions(k, bound)):
        spec = RegionSpec(k=k, target=region.target, bound=bound, denominator=denominator)
        seed = 1000 * k + 10 * index + bound + denominator
        expected, expected_state = _outcome(reference_sample_config, spec, seed)
        actual, actual_state = _outcome(sample_config, spec, seed)
        assert actual == expected, spec.name
        assert actual_state == expected_state, spec.name
        exhausted += expected is RegionExhaustedError
    if bound == 2:
        assert exhausted, "bound 2 leaves no region empty; the exhaustion path went untested"


def test_all_valid_small_k_matches_reference():
    for k in (1, 2, 3):
        spec = RegionSpec(k=k, bound=6, denominator=3)
        for seed in range(5):
            assert _outcome(sample_config, spec, seed) == _outcome(
                reference_sample_config, spec, seed
            )


@pytest.mark.parametrize("max_rejections", [0, 1, 7, 300])
@pytest.mark.parametrize("bound", [64, 255, 1000])
@pytest.mark.parametrize("k", [4, 7, 8])
def test_sampler_matches_reference_past_one_byte(k, bound, max_rejections):
    """Power-of-two and multi-byte bounds, and exhaustion after 0, 1, 7 or
    300 draws; a zero budget reads nothing from the generator."""
    for index, region in enumerate(default_regions(k, bound)):
        spec = RegionSpec(k=k, target=region.target, bound=bound)
        seed = 7919 * k + 31 * index + bound + max_rejections
        expected = _outcome(reference_sample_config, spec, seed, max_rejections)
        assert _outcome(sample_config, spec, seed, max_rejections) == expected, spec.name


@pytest.mark.parametrize("bound", [2**31, 2**32 - 1])
def test_sampler_matches_reference_at_full_word_bounds(bound):
    for k in (1, 2, 4):
        spec = RegionSpec(k=k, bound=bound, denominator=7)
        for seed in range(3):
            expected = _outcome(reference_sample_config, spec, seed, 50)
            assert _outcome(sample_config, spec, seed, 50) == expected


def test_bound_beyond_one_word_rejected():
    RegionSpec(k=4, bound=2**32 - 1)
    with pytest.raises(ValueError, match="bound must be <= 4294967295"):
        RegionSpec(k=4, bound=2**32)


def test_sampler_needs_a_plain_random():
    class Shuffled(random.Random):
        pass

    spec = RegionSpec(k=4)
    for rng in (Shuffled(0), random.SystemRandom()):
        with pytest.raises(TypeError, match="random.Random"):
            sample_config(spec, rng)


# --- the sampler's read is randint's -------------------------------------------


def _stream(rng, bound, count):
    """The next ``count`` numerators as ``sample_config`` reads them:
    ``getrandbits`` of the bound's bit length, retried until below the bound,
    plus 1."""
    bits = bound.bit_length()
    values = []
    while len(values) < count:
        if (v := rng.getrandbits(bits)) < bound:
            values.append(v + 1)
    return values


@pytest.mark.parametrize("bound", [2, 3, 4, 12, 50, 64, 255, 1000, 2**31, 2**32 - 1])
def test_word_stream_is_randint(bound):
    """Guards the sampler against a change in how ``randint`` reads the generator."""
    rng, read = random.Random(bound), random.Random(bound)
    expected = [rng.randint(1, bound) for _ in range(20_000)]
    assert _stream(read, bound, 20_000) == expected
    assert read.getstate() == rng.getstate()


# --- classification: integer core vs fractions --------------------------------


def _label_or_tie(classify, *args):
    try:
        return str(classify(*args))
    except ClassificationTieError as exc:
        return ("tie", exc.description)


draws = st.integers(4, 6).flatmap(
    lambda k: st.lists(st.integers(1, 4), min_size=2 * k - 1, max_size=2 * k - 1)
)


@settings(max_examples=1500, deadline=None)
@given(draws, st.integers(1, 5))
# Threshold ties need an entry above 4: left end, right end, middle.
@example([3, 5, 5, 3, 2, 9, 9], 1)
@example([1, 1, 5, 3, 9, 9, 2], 2)
@example([1, 3, 5, 1, 9, 2, 9], 3)
def test_integer_core_matches_fraction_classify(numerators, denominator):
    k = (len(numerators) + 1) // 2
    a, p = numerators[:k], numerators[k:]
    cfg = DistanceConfig(
        tuple(Fraction(x, denominator) for x in a), tuple(Fraction(x, denominator) for x in p)
    )
    assume(reference_valid(cfg))
    expected = _label_or_tie(reference_classify, cfg)
    assert _label_or_tie(cases.label_of, a, p) == expected
    assert _label_or_tie(cases.classify, cfg) == expected
