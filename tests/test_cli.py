import contextlib
import gc
import io
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from qlocc import average_entanglement, classify
from qlocc.cli import _sweep_blocks, main
from qlocc.io import sweep_csv
from qlocc.ueb import GeneratorParams, generate_eq1, generate_eq2


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_generate_then_classify_round_trip(tmp_path):
    doc = tmp_path / "eq1.json"
    res = run("generate", "eq1", "--lam1", "0.3", "--lam3", "0.4", "--out", str(doc))
    assert res.exit_code == 0, res.output
    res = run("classify", str(doc), "--json", "-")
    assert res.exit_code == 0, res.output
    assert "class: OneUnidentifiable" in res.output
    assert "UEB: yes" in res.output
    assert "NOT identifiable" in res.output


def test_classify_bell_basis(tmp_path):
    doc = tmp_path / "bell.json"
    s = 2 ** -0.5
    doc.write_text(
        json.dumps(
            {
                "states": [
                    [[s, 0], [0, 0], [0, 0], [s, 0]],
                    [[s, 0], [0, 0], [0, 0], [-s, 0]],
                    [[0, 0], [s, 0], [s, 0], [0, 0]],
                    [[0, 0], [s, 0], [-s, 0], [0, 0]],
                ]
            }
        )
    )
    res = run("classify", str(doc))
    assert res.exit_code == 0, res.output
    assert "class: CompleteBasis(4)" in res.output
    assert "conclusively distinguishable: no" in res.output


def test_classify_json_report_has_witnesses(tmp_path):
    doc = tmp_path / "eq2.json"
    run("generate", "eq2", "--lam1", "0.2", "--out", str(doc))
    out = tmp_path / "report.json"
    res = run("classify", str(doc), "--json", str(out))
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    assert payload["class"] == "TwoUnidentifiable"
    witness = payload["states"][0]["witness"]
    flat = [x for pair in witness for x in pair]
    assert flat == pytest.approx([1, 0, 0, 0, 0, 0, 0, 0], abs=1e-12)
    assert [s["identifiable"] for s in payload["states"]] == [True, False, False]


def test_classify_malformed_amplitude_exits_2(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text('{"states": [[[1, 0], [0, 0], ["x", 0], [0, 0]]]}')
    res = run("classify", str(doc))
    assert res.exit_code == 2
    assert "states[0][2]" in res.output


def _triple_doc(third, **extra):
    first, second = [[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0], [0, 0]]
    return json.dumps({"states": [first, second, third], **extra})


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "text, field",
    [
        pytest.param(_triple_doc([[0, 0], [0, 0], [_NAN, 0], [0, 0]]), "states[2][2]", id="nan"),
        pytest.param(_triple_doc([[0, 0], [0, 0], [0, _INF], [0, 0]]), "states[2][2]", id="inf"),
        pytest.param(
            _triple_doc([[0, 0], [0, 0], [1e308, 0], [1e308, 0]]), "states[2]", id="norm-overflow"
        ),
        pytest.param(_triple_doc([[0, 0], [0, 0], [True, 0], [0, 0]]), "states[2][2]", id="bool"),
        pytest.param(
            _triple_doc([[0, 0], [0, 0], [1, 0], [0, 0]], tolerances={"eps_zero": _NAN}),
            "tolerances.eps_zero",
            id="nan-tolerance",
        ),
    ],
)
def test_classify_non_finite_or_bool_input_exits_2(tmp_path, text, field):
    doc = tmp_path / "bad.json"
    doc.write_text(text)
    res = run("classify", str(doc))
    assert res.exit_code == 2, res.output
    assert field in res.output


def test_classify_overflowing_tau_overlap_exits_2(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text(_triple_doc([[0, 0], [0, 0], [1, 0], [0, 0]], tolerances={"tau_overlap": 1e200}))
    res = run("classify", str(doc))
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # an input error, not an OverflowError
    assert "tolerances.tau_overlap" in res.output and "Traceback" not in res.output


def test_classify_nonorthogonal_exits_2(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text(
        '{"states": [[[1,0],[0,0],[0,0],[0,0]], [[1,0],[0,0],[0,0],[0,0]]]}'
    )
    res = run("classify", str(doc))
    assert res.exit_code == 2
    assert "not orthogonal" in res.output


def test_sweep_eq1(tmp_path):
    out = tmp_path / "sweep.csv"
    res = run("sweep", "eq1", "--grid", "0.1:0.9:5", "--out", str(out))
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda1,lambda3,class,unidentifiable,avg_entanglement,is_ueb"
    assert len(lines) == 26  # header + 5x5 grid
    assert all(",OneUnidentifiable,0," in line for line in lines[1:])
    assert all(line.endswith(",true") for line in lines[1:])


def test_sweep_eq2(tmp_path):
    out = tmp_path / "sweep2.csv"
    res = run("sweep", "eq2", "--grid", "0.1:0.9:5", "--out", str(out))
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    assert all(",TwoUnidentifiable,1;2," in line for line in lines[1:])


def test_sweep_eq2_rejects_grid_l3(tmp_path):
    out = tmp_path / "sweep2.csv"
    res = run("sweep", "eq2", "--grid", "0.1:0.9:5", "--grid-l3", "0.1:0.9:5", "--out", str(out))
    assert res.exit_code == 2
    assert "--grid-l3 applies to eq1 only" in res.output
    assert not out.exists()


def test_sweep_empty_grid_l3_exits_2(tmp_path):
    # an empty lam3 grid is malformed, not a request for the default
    out = tmp_path / "x.csv"
    res = run("sweep", "eq1", "--grid", "0.1:0.9:5", "--grid-l3", "", "--out", str(out))
    assert res.exit_code == 2
    assert "grid ''" in res.output and not out.exists()


def test_sweep_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("sweep", "eq1", "--grid", "0.2:0.8:3", "--out", str(a))
    run("sweep", "eq1", "--grid", "0.2:0.8:3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_joined_entanglement_columns(tmp_path):
    """The one-product family never has lower average entanglement than the
    all-entangled family at matched lam1 (averages, not counts, see ledger)."""
    csv1, csv2 = tmp_path / "eq1.csv", tmp_path / "eq2.csv"
    run("sweep", "eq1", "--grid", "0.1:0.9:5", "--out", str(csv1))
    run("sweep", "eq2", "--grid", "0.1:0.9:5", "--out", str(csv2))
    avg2 = {}
    for line in csv2.read_text().splitlines()[1:]:
        cols = line.split(",")
        avg2[cols[0]] = float(cols[4])
    for line in csv1.read_text().splitlines()[1:]:
        cols = line.split(",")
        assert float(cols[4]) < avg2[cols[0]]


# both eq1 grids hold lam1 = 1/2, where generate_eq1 warns that psi1 is maximally entangled
_LAM1_HALF = pytest.mark.filterwarnings("ignore::qlocc.ueb.MaximalEntanglementWarning")


@pytest.mark.parametrize(
    "family, grid",
    [
        pytest.param("eq1", "0.05:0.95:19", marks=_LAM1_HALF),
        pytest.param("eq1", "0.001:0.999:23", marks=_LAM1_HALF),
        ("eq2", "0.001:0.999:400"),
        ("eq2", "0.001:0.999:4100"),  # two blocks: the seam at point 4,096
    ],
)
def test_sweep_rows_match_per_point_classify(tmp_path, family, grid):
    """The batched sweep writes the bytes of a per-point loop over classify."""
    out = tmp_path / "sweep.csv"
    assert run("sweep", family, "--grid", grid, "--out", str(out)).exit_code == 0
    lo, hi, steps = grid.split(":")
    values = [float(x) for x in np.linspace(float(lo), float(hi), int(steps))]
    points = [(l1, l3) for l1 in values for l3 in values] if family == "eq1" else [
        (l1, None) for l1 in values
    ]
    records = []
    for l1, l3 in points:
        ens = generate_eq1(GeneratorParams(l1, l3)) if l3 is not None else generate_eq2(l1)
        cls, report = classify(ens)
        records.append({
            "lambda1": l1,
            "lambda3": l3,
            "class": cls.describe(),
            "unidentifiable": [v.index for v in report.per_state if not v.identifiable],
            "avg_entanglement": average_entanglement(ens),
            "is_ueb": cls.ueb.is_ueb,
        })
    # line by line, so that a failure names its first differing row at once (pytest's
    # diff of the two whole files takes minutes); equal line lists are equal files
    got, want = out.read_text().split("\n"), sweep_csv(records).split("\n")
    k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    assert (got[k : k + 1], len(got)) == (want[k : k + 1], len(want)), f"line {k} differs"


def test_sweep_memory_does_not_grow_with_the_grid():
    """A sweep decides its grid in blocks: its first record costs as much memory at 2000x2000
    as at 250x250 (expanding the whole grid first cost 60 MB more)."""
    peaks = []
    for steps in (250, 2000):
        lam = np.linspace(0.001, 0.999, steps)
        tracemalloc.start()
        try:
            next(_sweep_blocks(lam, lam))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1e6, peaks


def test_in_process_run_releases_stdout(tmp_path):
    """An in-process run leaves no reference to the stdout it wrote to."""
    buf = io.StringIO()
    ref = weakref.ref(buf)
    with contextlib.redirect_stdout(buf):
        main.main(["sweep", "eq2", "--grid", "0.1:0.9:3", "--out", str(tmp_path / "s.csv")],
                  standalone_mode=False)
    assert "3 grid points" in buf.getvalue()
    del buf
    gc.collect()
    assert ref() is None


def test_sweep_bad_bounds(tmp_path):
    res = run("sweep", "eq1", "--grid", "0:0.9:5", "--out", str(tmp_path / "x.csv"))
    assert res.exit_code == 2
    res = run("sweep", "eq1", "--grid", "0.1:0.9:1", "--out", str(tmp_path / "x.csv"))
    assert res.exit_code == 2


def test_demo_trit():
    res = run("demo-trit", "--lam1", "0.3", "--lam3", "0.4")
    assert res.exit_code == 0, res.output
    assert "trit 0: protected" in res.output
    assert "trit 1: recoverable" in res.output
    assert "trit 2: recoverable" in res.output


def test_demo_trit_maximal_warns():
    res = run("demo-trit", "--lam1", "0.5", "--lam3", "0.5")
    assert res.exit_code == 0, res.output
    assert "trit 0: protected" in res.output
    assert "warning" in res.output.lower()


def test_demo_trit_bad_param():
    res = run("demo-trit", "--lam1", "1.2", "--lam3", "0.4")
    assert res.exit_code == 2


def test_generate_random_met_deterministic():
    a = run("generate", "random-met", "--seed", "42")
    b = run("generate", "random-met", "--seed", "42")
    c = run("generate", "random-met", "--seed", "43")
    assert a.output == b.output
    assert a.output != c.output


def test_generate_bell_triple_classifies_conclusive_only(tmp_path):
    doc = tmp_path / "bell3.json"
    run("generate", "bell-triple", "--out", str(doc))
    res = run("classify", str(doc))
    assert res.exit_code == 0
    assert "class: ConclusiveOnly" in res.output


def test_verify_selected_suites():
    res = run("verify", "--suite", "prop3", "--suite", "span")
    assert res.exit_code == 0, res.output
    assert res.output.count("[pass]") == 2


@pytest.mark.parametrize(
    "suite, checked",
    [("prop1", 3), ("impossibility", 3), ("complete-basis", 3), ("sanpera", 3), ("bravyi", 3),
     ("footnote2", 3), ("prop2", 361), ("prop3", 19), ("hierarchy", 361), ("span", 361)],
)
def test_verify_counted_suite(suite, checked):
    # counted suites check --count sets; the family suites check their fixed grid
    res = run("verify", "--suite", suite, "--count", "3", "--seed", "5")
    assert res.exit_code == 0, res.output
    assert f": {checked}/{checked}" in res.stdout and res.stdout.count("\n") == 1
    assert res.stderr == ""


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--suite", "impossibility", "--count", "0"],
        ["verify", "--suite", "prop1", "--count", "-3"],
        ["verify", "--suite", "prop1", "--seed", "-5"],
        ["generate", "random-met", "--seed", "-1"],
        ["generate", "eq1", "--out", "{missing}/x.json"],
        ["sweep", "eq1", "--grid", "0.1:0.9:3", "--out", "{missing}/x.csv"],
        ["classify", "{doc}", "--json", "{missing}/x.json"],
    ],
)
def test_bad_count_seed_or_unwritable_output_exits_2(tmp_path, args):
    doc = tmp_path / "bell3.json"
    run("generate", "bell-triple", "--out", str(doc))
    args = [a.format(missing=tmp_path / "missing", doc=doc) for a in args]
    res = run(*args)
    assert res.exit_code == 2, res.output
    assert res.stdout == ""  # only the error, on stderr: nothing is printed before it
    if "missing" in args[-1]:
        assert f"error: cannot write {args[-1]}" in res.output
