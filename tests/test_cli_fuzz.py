"""Fuzzed input through ``cli.main``: bad input fails cleanly.

Config text (``parse_config``), JSON objects (``config_from_dict``) and
``--seeding`` strings are drawn at random, with k at most 6 so that each
example runs quickly.  Input that the program accepts exits 0 with nothing
on stderr.  Anything else must exit 2 with one ``error:`` line on stderr:
no traceback and no other exit code.  The one other exit-2 outcome is a
strict ``simulate`` run that reports a tie on stdout.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from kmeans_richness.cli import main

HUGE = st.integers(10**30, 10**80)

TOKENS = st.one_of(
    st.integers(-3, 60).map(str),
    st.builds(lambda num, den: f"{num}/{den}", st.integers(-5, 60), st.integers(0, 9)),
    HUGE.map(str),
    st.sampled_from(["", " ", "x", "1.5", "1e3", "--1", "1/", "/2", "nan", "inf", "½", "١", "1_0"]),
    st.text(max_size=4),
)


def _field(name):
    return st.lists(TOKENS, max_size=6).map(lambda values: f"{name}=" + ",".join(values))


TEXT_CONFIGS = st.one_of(
    st.builds(
        lambda parts, sep: sep.join(parts),
        st.lists(st.one_of(_field("a"), _field("p"), st.text(max_size=6)), max_size=3),
        st.sampled_from([";", "; ", " ;\n"]),
    ),
    st.text(max_size=30),
)

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 60),
    HUGE,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
    TOKENS,
    st.lists(st.integers(1, 9), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
JSON_LISTS = st.lists(st.one_of(st.integers(1, 60), TOKENS, JSON_VALUES), max_size=6)
JSON_K = st.one_of(st.integers(-2, 8), HUGE, st.integers(0, 8).map(lambda k: f" {k}\n"), JSON_VALUES)
JSON_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        "a": st.one_of(JSON_LISTS, JSON_VALUES),
        "p": st.one_of(JSON_LISTS, JSON_VALUES),
        "k": JSON_K,
        "extra": JSON_VALUES,
    },
)


@st.composite
def near_valid_json_configs(draw):
    """Well-formed a and p of one k, then maybe one entry spoilt and maybe a k."""
    k = draw(st.integers(1, 6))
    entries = st.one_of(st.integers(1, 60), HUGE)
    obj = {
        "a": draw(st.lists(entries, min_size=k, max_size=k)),
        "p": draw(st.lists(entries, min_size=k - 1, max_size=k - 1)),
    }
    if draw(st.booleans()):
        values = obj[draw(st.sampled_from(["a", "p"]))]
        if values:
            values[draw(st.integers(0, len(values) - 1))] = draw(JSON_VALUES)
    if draw(st.booleans()):
        obj["k"] = draw(JSON_K)
    return obj


SEEDINGS = st.one_of(
    st.builds(
        lambda indices, sep, braces: braces[0] + sep.join(indices) + braces[1],
        st.lists(st.one_of(st.integers(-2, 14).map(str), HUGE.map(str), TOKENS), max_size=7),
        st.sampled_from([",", ", ", " ,"]),
        st.sampled_from([("", ""), ("{", "}"), (" {", "} ")]),
    ),
    st.text(max_size=12),
)


@st.composite
def small_configs(draw):
    k = draw(st.integers(1, 6))
    a = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    p = draw(st.lists(st.integers(1, 9), min_size=k - 1, max_size=k - 1))
    return f"a={','.join(map(str, a))}; p={','.join(map(str, p))}".removesuffix("; p=")


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_clean(code, out, err):
    if code == 0:
        assert err == ""
    elif code == 2 and not err and "outcome: tie at step" in out:
        pass  # a strict run that ties reports it on stdout
    else:
        assert code == 2, (code, err)
        assert err.startswith("error: "), err
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err


@settings(max_examples=300, deadline=None)
@given(TEXT_CONFIGS)
def test_text_configs_fail_cleanly(text):
    assert_clean(*run_main("probability", "--", text))


@settings(max_examples=300, deadline=None)
@given(st.one_of(JSON_CONFIGS, near_valid_json_configs()))
def test_json_configs_fail_cleanly(obj):
    assert_clean(*run_main("probability", json.dumps(obj)))


def test_json_nested_past_the_parser_depth_fails_cleanly():
    text = '{"a": ' + "[" * 100_000 + "]" * 100_000 + "}"
    assert_clean(*run_main("probability", text))


@settings(max_examples=300, deadline=None)
@given(small_configs(), SEEDINGS)
def test_seedings_fail_cleanly(config, seeding):
    assert_clean(*run_main("simulate", f"--seeding={seeding}", "--", config))
