"""Property tests at the input boundary: every document and CLI call gives an answer or a
QloccError (exit 2), never another exception or a traceback.

Deterministic: examples are derived from the test itself (derandomize=True), nothing is
read from or written to an example database, and each property runs a fixed number of
examples, a few seconds in all.
"""

import json
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from click.testing import CliRunner  # noqa: E402
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qlocc import (  # noqa: E402
    OrthogonalSet,
    classify,
    generate_eq1,
    generate_eq2,
    make_state,
    random_orthogonal_set,
)
from qlocc.cli import main  # noqa: E402
from qlocc.errors import QloccError  # noqa: E402
from qlocc.io import amplitude_pairs, emit_document, parse_document  # noqa: E402
from qlocc.ueb import GeneratorParams, MaximalEntanglementWarning  # noqa: E402


_EPS = np.finfo(float).eps


def _budget(examples):
    return settings(
        derandomize=True,
        database=None,
        deadline=None,
        max_examples=examples,
        suppress_health_check=[HealthCheck.too_slow],
    )


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


# JSON values that are not amplitudes: wrong types, non-finite and out-of-range numbers
_junk_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),
    st.text(max_size=4),
)
_junk_json = st.recursive(
    _junk_scalar,
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=16,
)
# every decade from below the subnormals to past the float range: 0.0 and inf at the ends
_decade = st.integers(-330, 330).map(lambda k: float(f"1e{k}"))
_tolerance_keys = st.sampled_from(["eps_orth", "eps_zero", "tau_overlap", "other"])
_tolerance_value = st.one_of(
    _decade,
    st.integers(0, 330).map(lambda k: 10**k),  # JSON integers, past the float range too
    st.floats(),
    st.booleans(),
    st.none(),
)


@st.composite
def _ensembles(draw):
    """Valid sets: seeded Haar sets of 2-4 members, the two families at any interior
    parameter, or the Bell triple."""
    kind = draw(st.sampled_from(["haar", "eq1", "eq2", "bell"]))
    unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    if kind == "haar":
        return random_orthogonal_set(draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 4)))
    with warnings.catch_warnings():  # lam1 = 1/2 is a valid member, with a warning
        warnings.simplefilter("ignore", MaximalEntanglementWarning)
        if kind == "eq1":
            return generate_eq1(GeneratorParams(draw(unit), draw(unit)))
        if kind == "eq2":
            return generate_eq2(draw(unit))
    return OrthogonalSet(tuple(make_state(a) for a in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0])))


@st.composite
def _near_valid_documents(draw):
    """Valid sets, some scaled by 1e-300..1e300, some with one amplitude replaced by junk,
    with valid or junk labels and tolerance overrides of every magnitude."""
    ens = draw(_ensembles())
    scale = 10.0 ** draw(st.one_of(st.just(0), st.integers(-300, 300)))
    states = [[[re * scale, im * scale] for re, im in amplitude_pairs(s)] for s in ens.states]
    if draw(st.integers(0, 2)) == 0:
        i, k = draw(st.integers(0, len(states) - 1)), draw(st.integers(0, 3))
        states[i][k] = draw(st.one_of(_junk_json, st.lists(_junk_scalar, min_size=2, max_size=2)))
    doc = {"states": states}
    labels = st.lists(st.text(max_size=8), min_size=len(states), max_size=len(states))
    if draw(st.booleans()):
        doc["labels"] = draw(st.one_of(labels, _junk_json))
    if draw(st.booleans()):
        doc["tolerances"] = draw(st.dictionaries(_tolerance_keys, _tolerance_value, max_size=3))
    return json.dumps(doc)


def _answer_or_qlocc_error(text):
    try:
        doc = parse_document(text)
        classify(doc.ensemble)
    except QloccError:
        pass


@_budget(300)
@given(st.one_of(st.text(max_size=40), _junk_json.map(json.dumps)))
def test_junk_documents_raise_only_qlocc_errors(text):
    _answer_or_qlocc_error(text)


@_budget(300)
@given(_near_valid_documents())
def test_near_valid_documents_raise_only_qlocc_errors(text):
    _answer_or_qlocc_error(text)


@_budget(150)
@given(_ensembles(), st.data())
def test_emit_then_parse_round_trips_the_amplitudes(ens, data):
    labels = data.draw(st.lists(st.text(max_size=8), min_size=len(ens), max_size=len(ens)))
    doc = parse_document(emit_document(ens, labels))
    # parsing renormalises, which can move a unit vector's amplitudes by an ulp or two
    for before, after in zip(ens.states, doc.ensemble.states):
        np.testing.assert_allclose(after.amps, before.amps, rtol=0, atol=4 * _EPS)
    assert doc.labels == tuple(labels)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@_budget(60)
@given(_ensembles(), st.dictionaries(
    st.sampled_from(["eps_orth", "eps_zero", "tau_overlap"]),
    st.floats(min_value=1e-300, max_value=2.0), max_size=2,
))
def test_classify_json_is_strict_json(workdir, ens, tolerances):
    doc, report = workdir / "doc.json", workdir / "report.json"
    report.unlink(missing_ok=True)
    states = [amplitude_pairs(s) for s in ens.states]
    doc.write_text(json.dumps({"states": states, "tolerances": tolerances}))
    res = CliRunner().invoke(main, ["classify", str(doc), "--json", str(report)])
    assert res.exit_code in (0, 2), res.output
    if res.exit_code == 0:
        payload = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert len(payload["states"]) == len(ens)


# option values as a shell would pass them: floats in [0, 1], where the families' parameters
# and the sweep's bounds lie, floats of every kind, and text that is not one
_float_text = st.one_of(
    st.floats(min_value=0.0, max_value=1.0).map(repr),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "", "x", "0x1p-2"]),
)
_interior = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_grid_text = st.one_of(
    st.builds(lambda a, b, n: f"{min(a, b)!r}:{max(a, b)!r}:{n}", _interior, _interior,
              st.integers(-2, 30)),
    st.builds("{}:{}:{}".format, _float_text, _float_text, st.integers(-2, 30)),
    st.text(max_size=8),
)


@st.composite
def _cli_args(draw):
    command = draw(st.sampled_from(["generate", "demo-trit", "sweep", "verify"]))
    if command == "generate":
        family = draw(st.sampled_from(["eq1", "eq2", "bell-triple", "random-met", "eq3"]))
        seed = draw(st.one_of(st.integers(-5, 2**40).map(str), st.text(max_size=4)))
        return ["generate", family, "--lam1", draw(_float_text), "--lam3", draw(_float_text),
                "--seed", seed]
    if command == "demo-trit":
        return ["demo-trit", "--lam1", draw(_float_text), "--lam3", draw(_float_text)]
    if command == "sweep":
        args = ["sweep", draw(st.sampled_from(["eq1", "eq2"])), "--grid", draw(_grid_text)]
        if draw(st.booleans()):
            args += ["--grid-l3", draw(_grid_text)]
        return args + ["--out", "sweep.csv"]
    # counts and seeds that are out of range or not integers: each is refused before a suite runs
    bad = st.one_of(st.integers(max_value=-1).map(str), st.sampled_from(["", "x", "1.5", "nan"]))
    return ["verify", "--suite", "prop1", draw(st.sampled_from(["--count", "--seed"])), draw(bad)]


@_budget(150)
@given(_cli_args())
def test_cli_exits_0_or_2_without_a_traceback(workdir, args):
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=workdir):
        res = runner.invoke(main, args)
    assert res.exit_code in (0, 2), (args, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), (args, res.exception)
    assert "Traceback" not in res.output, (args, res.output)
