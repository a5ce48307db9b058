"""Exact region sampling and integer classification against slow references.

The sampler draws from count tables (``verify._region_table``); the case
analysis works on integer numerators.  The references below are the
straightforward versions: the rejection sampler, ``randint`` per entry and
one ``Fraction`` config per draw, kept when it is valid and has the target
label; thresholds as ``(2*gap + right)/3``, and every comparison made on
fractions.  The tables must hold exactly the tuples that the references
accept (or a superset that ``label_of`` narrows to them), the sampler must
draw from the same distribution as the rejection sampler, and on every
config the integer core must give the same label or the same tie.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import prod
from operator import lt, mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kmeans_richness import cases, verify
from kmeans_richness.cases import (
    UNCLASSIFIED,
    CaseLabel,
    ClassificationTieError,
    _region_params,
    _region_targets,
)
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


def reference_accepts(spec, cfg):
    """Whether the rejection sampler keeps ``cfg`` for ``spec``."""
    if not reference_valid(cfg):
        return False
    if cfg.k < 4:
        return True
    try:
        label = reference_classify(cfg)
    except ClassificationTieError:
        return False
    return spec.target == "all-valid" or label.matches(spec.target)


# The rejection sampler's draws per config it returns.  A region that is
# empty at a small bound exhausts it after this many.
MAX_REJECTIONS = 2_000


def reference_sample_config(spec, rng, max_rejections=MAX_REJECTIONS):
    """The rejection sampler: one Fraction config per draw, until one is accepted."""
    k, bound = spec.k, spec.bound
    for _ in range(max_rejections):
        a = tuple(Fraction(rng.randint(1, bound)) for _ in range(k))
        p = tuple(Fraction(rng.randint(1, bound)) for _ in range(k - 1))
        cfg = DistanceConfig(a, p)
        if reference_accepts(spec, cfg):
            return cfg
    raise RegionExhaustedError(spec.name)


# --- sampler: the rejection sampler's distribution --------------------------

# The rejection sampler's draws in all per region, where the region is known
# not to be empty: k=6 BE at bound 2 keeps 1 in 2048 draws, ADCB at bound 50
# about 1 in 670, and k=6 BD at bound 4 fewer still.
REFERENCE_DRAWS = 4_000

# k>4 regions whose gap shapes pin them down, as BC(m) and BC(m)~ do too:
# the sampler never rejects there, nor in any k=4 region.
EXACT_TAGS = {"BA", "BB", "BE"}


def _is_exact(spec):
    label = spec._label
    if spec.k < 4:
        return True
    if label is None:  # ties are left to the label
        return False
    return spec.k == 4 or label.tag in EXACT_TAGS or (label.tag == "BC" and label.param is not None)


def _chi2_limit(df):
    """The upper 1e-4 point of chi-square with ``df`` degrees of freedom
    (Wilson-Hilferty)."""
    h = 2 / (9 * df)
    return df * (1 - h + 3.719 * h**0.5) ** 3


def _homogeneous(xs, ys):
    """Two-sample chi-square test that equal-sized samples ``xs`` and ``ys``
    share one distribution over their values; values seen fewer than 10 times
    in all are pooled into one cell.  True unless rejected at 1e-4."""
    assert len(xs) == len(ys)
    ours, theirs = Counter(xs), Counter(ys)
    cells = [(ours[v], theirs[v]) for v in ours.keys() | theirs.keys()]
    big = [cell for cell in cells if sum(cell) >= 10]
    pooled = tuple(map(sum, zip((0, 0), *(cell for cell in cells if sum(cell) < 10))))
    cells = big + [pooled] * (sum(pooled) > 0)
    if len(cells) < 2:
        return True
    return sum((x - y) ** 2 / (x + y) for x, y in cells) <= _chi2_limit(len(cells) - 1)


def _uniform_fit(draws, support):
    """Chi-square goodness of fit of ``draws`` to the uniform distribution on
    ``support``; every draw must lie in it.  True unless rejected at 1e-4."""
    counts = Counter(draws)
    assert counts.keys() <= support
    expected = len(draws) / len(support)
    statistic = sum((counts[t] - expected) ** 2 for t in support) / expected
    return statistic <= _chi2_limit(len(support) - 1)


def _in_region(spec, cfg):
    """``cfg`` is one the rejection sampler could keep for ``spec``."""
    in_range = all(x.denominator == 1 and 1 <= x <= spec.bound for x in cfg.a + cfg.p)
    return in_range and reference_accepts(spec, cfg)


def _draws(sampler, spec, seed, count):
    """``count`` draws from one generator, or None if the region ran dry."""
    rng = random.Random(seed)
    try:
        return [sampler(spec, rng) for _ in range(count)]
    except RegionExhaustedError:
        return None


def _reference_draws(spec, seed, count, budget=REFERENCE_DRAWS):
    """Up to ``count`` configs the rejection sampler keeps in ``budget`` draws."""
    rng = random.Random(seed)
    kept = []
    for _ in range(budget):
        if len(kept) == count:
            break
        try:
            kept.append(reference_sample_config(spec, rng, 1))
        except RegionExhaustedError:
            pass
    return kept


def _halves(cfg, spec, index):
    """A coarse key of a draw: its region, and which half of the bound its
    first a and first p fall in."""
    first = (cfg.a[0], cfg.p[0]) if cfg.p else (cfg.a[0],)
    return (index,) + tuple(2 * x > spec.bound for x in first)


@pytest.mark.parametrize("salt", [1, 5])
@pytest.mark.parametrize("bound", [2, 4, 12, 50])
@pytest.mark.parametrize("k", [4, 5, 6])
def test_sampler_matches_reference(k, bound, salt):
    """Both samplers run dry in the same regions, keep only configs the
    references accept, and agree in distribution; one generator seed per
    ``salt``."""
    exhausted, ours, theirs = 0, [], []
    for index, spec in enumerate(default_regions(k, bound)):
        seed = 1000 * k + 10 * index + bound + salt
        drawn = _draws(sample_config, spec, seed, 8)
        if drawn is None:
            assert not _reference_draws(spec, seed, 1, MAX_REJECTIONS), spec.name
            exhausted += 1
            continue
        # the draws show the region is not empty; the rejection sampler may
        # keep fewer in a rare one, and the samples are compared at equal size
        expected = _reference_draws(spec, seed, 8)
        assert all(_in_region(spec, cfg) for cfg in drawn + expected), spec.name
        # a draw built from its integers holds the public constructor's view
        assert all(cfg._ints == DistanceConfig(cfg.a, cfg.p)._ints for cfg in drawn), spec.name
        drawn = drawn[: len(expected)]
        ours += [_halves(cfg, spec, index) for cfg in drawn]
        theirs += [_halves(cfg, spec, index) for cfg in expected]
    assert _homogeneous(ours, theirs)
    if bound == 2:
        assert exhausted, "bound 2 leaves no region empty; the exhaustion path went untested"


def _coordinates_agree(spec, ours, theirs, bins):
    """Each entry, cut into ``bins`` equal bins of 1..bound, has the same
    distribution in both samples."""
    def column(cfgs, j):
        return [((cfg.a + cfg.p)[j] - 1) * bins // spec.bound for cfg in cfgs]

    return all(_homogeneous(column(ours, j), column(theirs, j)) for j in range(2 * spec.k - 1))


def test_all_valid_small_k_matches_reference():
    for k in (1, 2, 3):
        spec = RegionSpec(k=k, bound=6)
        ours = _draws(sample_config, spec, k, 600)
        theirs = _draws(reference_sample_config, spec, k, 600)
        assert all(_in_region(spec, cfg) for cfg in ours + theirs)
        assert _coordinates_agree(spec, ours, theirs, 6)
        if k <= 2:  # few enough tuples to compare whole
            assert _homogeneous(ours, theirs)


@pytest.mark.parametrize("salt", [0, 1, 7, 300])
@pytest.mark.parametrize("bound", [64, 255, 1000])
@pytest.mark.parametrize("k", [4, 7, 8])
def test_sampler_matches_reference_past_one_byte(k, bound, salt, monkeypatch):
    """Bounds at and above ``G``, one generator seed per ``salt``: every
    region yields a draw in it, and where a table pins its region down, the
    draw passes its first label test.  At k=4 the draws follow the rejection
    sampler's distribution."""
    labelled = []
    label_of = cases.label_of

    def counted_label_of(a, p):
        labelled.append(a)
        return label_of(a, p)

    monkeypatch.setattr(cases, "label_of", counted_label_of)
    ours, theirs = [], []
    for index, region in enumerate(default_regions(k, bound)):
        spec = RegionSpec(k=k, target=region.target, bound=bound)
        seed = 7919 * k + 31 * index + bound + salt
        labelled.clear()
        drawn = _draws(sample_config, spec, seed, 1)
        assert drawn is not None and _in_region(spec, drawn[0]), spec.name
        if _is_exact(spec):
            assert len(labelled) == 1, spec.name
        if k == 4:
            expected = _reference_draws(spec, seed, 12)
            drawn = _draws(sample_config, spec, seed, len(expected))
            assert drawn is not None, spec.name
            ours += [_halves(cfg, spec, index) for cfg in drawn]
            theirs += [_halves(cfg, spec, index) for cfg in expected]
    assert _homogeneous(ours, theirs)


@pytest.mark.parametrize("bound", [2**31, 2**32 - 1])
def test_sampler_matches_reference_at_full_word_bounds(bound):
    for k in (1, 2, 4):
        spec = RegionSpec(k=k, bound=bound)
        ours = _draws(sample_config, spec, k, 200)
        theirs = _draws(reference_sample_config, spec, k, 200)
        assert all(_in_region(spec, cfg) for cfg in ours + theirs)
        assert _coordinates_agree(spec, ours, theirs, 8)


def test_empty_table_raises_before_reading():
    # an ascending left end needs three distinct values; impossible in {1, 2}
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(RegionExhaustedError, match="holds no config"):
        sample_config(RegionSpec(k=4, target="AA", bound=2), rng)
    assert rng.getstate() == state


def test_zero_budget_samples_an_exact_region(monkeypatch):
    """An exact region needs no rejection budget: each draw passes its first
    label test."""
    labelled = []
    label_of = cases.label_of
    monkeypatch.setattr(cases, "label_of", lambda a, p: labelled.append(a) or label_of(a, p))
    spec = RegionSpec(k=4, target="AA", bound=12)
    rng = random.Random(4)
    for _ in range(50):
        labelled.clear()
        assert _in_region(spec, sample_config(spec, rng))
        assert len(labelled) == 1


def test_budget_is_capped_by_the_table(monkeypatch):
    """A region whose table holds few configs, all rejected by the label,
    gives up after 64 draws per config in its table."""
    calls = []
    label_of = cases.label_of
    monkeypatch.setattr(cases, "label_of", lambda a, p: calls.append(a) or label_of(a, p))
    exhausted = []
    for spec in default_regions(5, bound=2):
        total = verify._region_table(5, spec._label, 2)[2][-1]
        calls.clear()
        try:
            sample_config(spec, random.Random(5))
        except RegionExhaustedError as exc:
            if total:
                assert f"after {64 * total} rejected draws" in str(exc)
                exhausted.append(spec.target)
        assert len(calls) <= 64 * total + 1, spec.name
    assert "BC" in exhausted


# --- the tables against exhaustive enumeration ---------------------------------


def _has_shape(shape, x, p, y):
    """The gap shapes as ``cases`` names them, on the triple (x, p, y)."""
    if 2 * p <= abs(x - y):
        return False
    pit = p < x and p < y
    return {
        "valid": True,
        "A": x < p < y,
        "B": x > p > y,
        "peak": p > x and p > y,
        "pit": pit,
        "CA": pit and 3 * x < 2 * p + y,
        "CB": pit and 3 * x > 2 * p + y,
        "CA~": pit and 3 * y < 2 * p + x,
        "CB~": pit and 3 * y > 2 * p + x,
    }[shape]


class _Config:
    """Just the fields the references read."""

    def __init__(self, a, p):
        self.a, self.p, self.k = a, p, len(a)


@cache
def _reference_labels(k, bound):
    """Per tuple a (entries in 1..bound), the verdict on a + p for every p in
    1..bound, in ``product`` order: None if not valid, "tie" on a reference
    classification tie, else the reference label ("valid" below k=4).
    Validity (2p > |a_j - a_{j+1}|) is read on the integers, which is
    homogeneous and much faster."""
    values = [Fraction(v) for v in range(bound + 1)]
    out = {}
    for a in product(range(1, bound + 1), repeat=k):
        fa = tuple(values[x] for x in a)
        lowest = [abs(x - y) // 2 + 1 for x, y in zip(a, a[1:])]  # least valid p per gap
        verdicts = []
        for p in product(range(1, bound + 1), repeat=k - 1):
            if any(map(lt, p, lowest)):
                verdicts.append(None)
            elif k < 4:
                verdicts.append("valid")
            else:
                try:
                    verdicts.append(str(reference_classify(_Config(fa, tuple(values[x] for x in p)))))
                except ClassificationTieError:
                    verdicts.append("tie")
        out[a] = verdicts
    return out


def _targets(k):
    """Every target at k: None for all-valid, each region and each param."""
    if k < 4:
        return [None]
    out = [None]
    for text in _region_targets(k):
        label = CaseLabel.parse(text)
        out += [label] + [CaseLabel(label.tag, label.mirrored, m) for m in _region_params(k, label)]
    return out


def _check_tables(k, low, top, exact_counts=True):
    """At each bound from ``low`` to ``top``, for every target: the tuples
    with nonzero table weight that ``label_of`` accepts are those the
    reference accepts, with no rejection where the shapes pin the region
    down; the table counts the p of each pair of values (at most, with
    ``exact_counts`` off), and the weight the sampler keeps sums to the
    number of tuples with the target's shapes."""
    labels = _reference_labels(k, top)
    verdicts = {v for row in labels.values() for v in row} - {None, "tie"}
    weights = [top ** (k - 2 - j) for j in range(k - 1)]  # p's place in its row
    base = sum(weights)

    def verdict(row, p):
        return row[sum(map(mul, p, weights)) - base]

    for b in range(low, top + 1):
        buckets = verify._buckets(b)
        bucket_of = {v: i for i, (first, last) in enumerate(buckets) for v in range(first, last + 1)}
        # per a, how often each verdict comes up over p in 1..b
        tallies = {
            a: Counter(verdict(row, p) for p in product(range(1, b + 1), repeat=k - 1))
            for a, row in labels.items()
            if max(a) <= b
        }
        for target in _targets(k):
            spec = RegionSpec(k=k, target=str(target) if target else "all-valid", bound=b)
            matching = {v for v in verdicts if target is None or CaseLabel.parse(v).matches(target)}
            shapes = cases.gap_shapes(k, target)
            tables = [verify._gap_counts(gap, b) for gap in shapes]
            allowed = {}
            for gap, table in zip(shapes, tables):
                for x, y in product(range(1, b + 1), repeat=2):
                    ps = [p for s in gap for p in range(1, b + 1) if _has_shape(s, x, p, y)]
                    assert len(set(ps)) == len(ps), (gap, x, y)  # the shapes are disjoint
                    ranges = [cases._p_range(s, x, x, y, y, b) for s in gap]
                    assert sorted(ps) == [p for lo, hi in sorted(ranges) for p in range(lo, hi + 1)]
                    count = verify._p_count(gap, x, x, y, y, b)
                    assert count == len(ps) <= table[bucket_of[y]][bucket_of[x]], (gap, x, y)
                    if exact_counts:
                        assert count == table[bucket_of[y]][bucket_of[x]], (gap, x, y)
                    allowed[gap, x, y] = ps
            kept = shaped = 0  # the sampler's exact weight, and the tuples with the shapes
            for a, tally in tallies.items():
                row = labels[a]
                triples = list(zip(shapes, a, a[1:]))
                kept += prod(verify._p_count(gap, x, x, y, y, b) for gap, x, y in triples)
                accepted = 0
                for p in product(*map(allowed.__getitem__, triples)):
                    ok = verdict(row, p) in matching
                    if not _is_exact(spec) and k >= 4:
                        try:
                            label = cases.label_of(a, p)
                        except ClassificationTieError:
                            label = None
                        assert (label is not None and (target is None or label.matches(target))) == ok
                    assert ok or not _is_exact(spec), (spec.name, a, p)
                    accepted += ok
                    shaped += 1
                assert accepted == sum(tally[v] for v in matching), (spec.name, a)
            assert kept == shaped, spec.name
            total = verify._region_table(k, target, b)[2][-1]  # in buckets, an envelope
            assert total == shaped if exact_counts else total >= shaped, spec.name


def test_k4_tables_match_reference():
    _check_tables(4, 2, 7)


def test_k5_tables_match_reference():
    _check_tables(5, 4, 4)


def test_small_k_tables_match_reference():
    _check_tables(2, 2, 7)
    _check_tables(3, 2, 7)


@pytest.fixture
def few_buckets(monkeypatch):
    """``G`` = 3, so that bounds 5 and 7 take the envelope path; the tables
    built under it are dropped before and after."""
    monkeypatch.setattr(verify, "G", 3)
    verify._gap_counts.cache_clear()
    verify._region_table.cache_clear()
    yield
    verify._gap_counts.cache_clear()
    verify._region_table.cache_clear()


def test_k4_tables_match_reference_in_buckets(few_buckets):
    assert len(verify._buckets(7)) == 3
    _check_tables(4, 7, 7, exact_counts=False)


def _accepted(spec):
    """Every entry tuple a + p the reference accepts, by enumeration."""
    k, b = spec.k, spec.bound
    target = spec._label
    accepted = set()
    for a, row in _reference_labels(k, b).items():
        for p, verdict in zip(product(range(1, b + 1), repeat=k - 1), row):
            if verdict not in (None, "tie") and (target is None or CaseLabel.parse(verdict).matches(target)):
                accepted.add(a + p)
    return accepted


def _entries(cfg):
    return tuple(map(int, cfg.a + cfg.p))


@pytest.mark.parametrize(
    "k, target, bound",
    [
        (4, "ADCB", 7),  # exact table: every draw kept
        (5, "BC", 3),  # superset table: label_of rejects
        (5, "BD", 3),  # superset table, five one-config params
    ],
)
def test_sampler_is_uniform_on_small_regions(k, target, bound):
    spec = RegionSpec(k=k, target=target, bound=bound)
    support = _accepted(spec)
    rng = random.Random(11)
    draws = [_entries(sample_config(spec, rng)) for _ in range(30 * len(support))]
    assert _uniform_fit(draws, support)


def test_sampler_is_uniform_in_buckets(few_buckets):
    spec = RegionSpec(k=4, target="ADB", bound=5)  # buckets 1, 2-3, 4-5
    support = _accepted(spec)
    rng = random.Random(12)
    draws = [_entries(sample_config(spec, rng)) for _ in range(30 * len(support))]
    assert _uniform_fit(draws, support)


def _shape_targets(k, label):
    """The targets at k that ``label`` matches: its region, and with its param."""
    region = CaseLabel(label.tag, label.mirrored)
    return [region] + ([label] if label.param is not None else [])


@settings(max_examples=800, deadline=None)
@given(
    st.integers(4, 10).flatmap(
        lambda k: st.lists(st.integers(1, 9), min_size=2 * k - 1, max_size=2 * k - 1)
    )
)
def test_gap_shapes_hold_every_matching_config(numerators):
    """Each config with a label has, for every target that label matches,
    every gap's triple in one of that target's shapes: the tables never
    drop a config of the region."""
    k = (len(numerators) + 1) // 2
    a, p = numerators[:k], numerators[k:]
    assume(all(abs(a[j] - a[j + 1]) < 2 * p[j] for j in range(k - 1)))
    try:
        label = cases.label_of(a, p)
    except ClassificationTieError:
        return  # no target accepts a tie
    for target in [None] + _shape_targets(k, label):
        for gap, x, y, q in zip(cases.gap_shapes(k, target), a, a[1:], p):
            assert any(_has_shape(s, x, q, y) for s in gap), (str(target), gap, x, q, y)


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


# --- the generator read behind the pinned reports --------------------------------


def _stream(rng, bound, count):
    """The next ``count`` values of ``randint(1, bound)``, that is ``1 +
    randrange(bound)``, read as CPython reads them: ``getrandbits`` of the
    bound's bit length, retried until below the bound, plus 1."""
    bits = bound.bit_length()
    values = []
    while len(values) < count:
        if (v := rng.getrandbits(bits)) < bound:
            values.append(v + 1)
    return values


@pytest.mark.parametrize("bound", [2, 3, 4, 12, 50, 64, 255, 1000, 2**31, 2**32 - 1])
def test_word_stream_is_randint(bound):
    """The sampler draws every value with ``randrange``, so the pinned report
    bytes rest on this read staying the same on every Python that runs them."""
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


draws = st.integers(4, 8).flatmap(
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
