"""Fuzzed input through ``cli.main``: bad input fails cleanly.

Config text (``parse_config``), JSON objects (``config_from_dict``) and
``--seeding`` strings are drawn at random, with k at most 6 so that each
example runs quickly.  Input that the program accepts exits 0 with nothing
on stderr.  Anything else must exit 2 with one ``error:`` line on stderr:
no traceback and no other exit code.  The one other exit-2 outcome is a
strict ``simulate`` run that reports a tie on stdout.

``certify --check`` files are real certificates (k <= 5), then maybe edited
or garbled; exit 1 is allowed only with ``check failed:`` lines, and exit 0
only for a file that the program itself makes for its config.
``verify`` options are drawn with k <= 5, at most 2 samples and bound <= 60;
exit 1 is allowed only when the report holds violations, and only below
k=4, where the paper makes no claim; exit 0 may print region warnings.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from kmeans_richness import cases, model, verify
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


# --- certify --check -------------------------------------------------------------


@st.composite
def certificates(draw):
    """A certificate of a valid config with k <= 5, as built by the CLI or the
    campaign: with or without traces and the oracle, or oracle-only."""
    k = draw(st.integers(1, 5))
    a = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    p = draw(st.lists(st.integers(1, 9), min_size=k - 1, max_size=k - 1))
    cfg = model.DistanceConfig(tuple(a), tuple(p))
    if not model.validate(cfg).valid:
        p = [max(p) + 9] * (k - 1)  # 2*p_j now exceeds every |a_j - a_(j+1)|
        cfg = model.DistanceConfig(tuple(a), tuple(p))
    traces = draw(st.booleans())
    if draw(st.booleans()):
        cert = verify.exists_failing_seeding(cfg, traces)
    else:
        cert = verify.certify_config(cfg, oracle=draw(st.booleans()), include_traces=traces)
    return json.loads(cert.to_json())


def _paths(value, path=()):
    """Every path into a JSON value, the value itself first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _nudge(value):
    """A value of the same JSON type, usually different."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "0"
    if isinstance(value, list):
        return value[1:]
    if isinstance(value, dict):
        return dict(list(value.items())[1:])
    return 0


@st.composite
def edited_certificates(draw):
    """(original, edited): up to three edits, each replacing, nudging,
    deleting or adding at one path."""
    original = draw(certificates())
    data = json.loads(json.dumps(original))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        if not path:
            if draw(st.booleans()):
                data = draw(JSON_VALUES)
            continue
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        key = path[-1]
        action = draw(st.sampled_from(["replace", "nudge", "delete", "add"]))
        if action == "replace":
            parent[key] = draw(JSON_VALUES)
        elif action == "nudge":
            parent[key] = _nudge(parent[key])
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=3))] = draw(JSON_VALUES)
        else:
            parent.insert(key, draw(JSON_VALUES))
    return original, data


def _canonical(value):
    return json.dumps(value, sort_keys=True)


def _without_config(value):
    return {key: item for key, item in value.items() if key != "config"}


def _genuine(config):
    """Every certificate the program makes for this config, without the config."""
    cfg = model.config_from_dict(config)
    certs = [verify.exists_failing_seeding(cfg, traces) for traces in (False, True)]
    certs += [
        verify.certify_config(cfg, oracle=oracle, include_traces=traces)
        for oracle in (False, True)
        for traces in (False, True)
    ]
    return {_canonical(_without_config(cert.to_dict())) for cert in certs}


def assert_checked(code, out, err, original, data):
    if isinstance(data, dict) and _canonical(data) == _canonical(original):
        assert (code, err) == (0, ""), err
    if code == 0:
        assert err == "" and "certificate checks out" in out
        # an edit may only pass by leaving a certificate the program makes,
        # for example by dropping every trace
        assert _canonical(_without_config(data)) in _genuine(data["config"])
    elif code == 1:
        lines = err.splitlines()
        assert out == "" and lines, err
        assert all(line.startswith("check failed: ") for line in lines), err
    else:
        assert_clean(code, out, err)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edited_certificates())
def test_certificate_checks_fail_cleanly(tmp_path, pair):
    original, data = pair
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    assert_checked(*run_main("certify", "--check", str(path)), original, data)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(certificates(), st.integers(0, 400), st.text(max_size=3))
def test_garbled_certificate_files_fail_cleanly(tmp_path, original, cut, extra):
    text = json.dumps(original)
    path = tmp_path / "cert.json"
    path.write_text(text[:cut] + extra)
    code, out, err = run_main("certify", "--check", str(path))
    assert code in (0, 2), (code, err)
    assert_clean(code, out, err)


def test_missing_certificate_file_fails_cleanly(tmp_path):
    assert_clean(*run_main("certify", "--check", str(tmp_path / "absent.json")))
    assert_clean(*run_main("certify", "--check", str(tmp_path)))


# --- verify options --------------------------------------------------------------

REGION_TOKENS = st.one_of(
    st.sampled_from(
        ["AA", "AB~", "ADD", "ADCB", "BA", "BC", "BC(2)", "BC(3)~", "BD", "BD(5)", "BE",
         "UNCLASSIFIED", "all-valid", "all", "BC(9)", "BD(0)", "AA(2)", "XX", "", "~", "()"]
    ),
    st.text(max_size=4),
)
OUTPUTS = st.sampled_from(
    ["report.json", "nested/report.json", "report.json", "", ".", "report.json/inner.json"]
)
CSV_OUTPUTS = st.sampled_from(
    ["summary.csv", "nested/summary.csv", "summary.csv", "", ".", "report.json/inner.csv",
     "report.json", "./nested/report.json"]
)


@st.composite
def verify_args(draw):
    args = [
        "verify",
        f"--k={draw(st.sampled_from([4, 5, 1, 2, 3, 4, 5, 0, -1]))}",
        f"--samples={draw(st.sampled_from([1, 2, 1, 2, 0, -1]))}",
        f"--bound={draw(st.integers(-1, 60))}",
        f"--seed={draw(st.one_of(st.integers(-5, 10**6), HUGE))}",
        f"--output={draw(OUTPUTS)}",
        f"--format={draw(st.sampled_from(['human', 'json', 'csv']))}",
    ]
    if draw(st.booleans()):
        args.append(f"--regions={','.join(draw(st.lists(REGION_TOKENS, min_size=1, max_size=3)))}")
    if draw(st.booleans()):
        args.append("--no-oracle")
    if draw(st.booleans()):
        args.append(f"--csv={draw(CSV_OUTPUTS)}")
    return args


@st.composite
def well_formed_verify_args(draw):
    """Options that name real regions at a k in 1..5."""
    k = draw(st.integers(1, 5))
    targets = st.lists(st.sampled_from(cases._region_targets(k)), min_size=1, max_size=3)
    regions = draw(st.one_of(st.just("all"), targets.map(",".join)))
    args = [
        "verify", f"--k={k}", f"--regions={regions}", f"--samples={draw(st.integers(1, 2))}",
        f"--bound={draw(st.integers(2, 60))}", f"--seed={draw(st.integers(0, 10**6))}",
        "--output=report.json", f"--format={draw(st.sampled_from(['human', 'json', 'csv']))}",
    ]
    if draw(st.booleans()):
        args.append("--no-oracle")
    return args


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(verify_args(), well_formed_verify_args()))
def test_verify_options_fail_cleanly(tmp_path, monkeypatch, args):
    # An empty region spends the whole draw budget (10**6 draws, seconds at
    # these k); a smaller one finds it empty the same way, in milliseconds.
    monkeypatch.setitem(verify.campaign.__kwdefaults__, "max_rejections", 2_000)
    monkeypatch.setenv("KMEANS_RICHNESS_OUTDIR", str(tmp_path))
    code, out, err = run_main(*args)
    output = next(arg for arg in args if arg.startswith("--output=")).removeprefix("--output=")
    csv = next((arg.removeprefix("--csv=") for arg in args if arg.startswith("--csv=")), "")
    if csv and (tmp_path / csv).resolve() == (tmp_path / output).resolve():
        assert code == 2, (code, err)  # one file for both would lose the report
    if code == 2:
        assert_clean(code, out, err)
        return
    assert all(line.startswith("    warning: ") for line in err.splitlines()), err
    report = json.loads((tmp_path / output).read_text())
    assert code == (1 if report["violation_count"] else 0), (code, err)
    if code == 1:
        assert report["regions"][0]["k"] < 4  # no theorem claim below k=4
