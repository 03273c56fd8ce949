import json

import pytest
from click.testing import CliRunner

from qlocc.cli import main


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


def test_verify_counted_suite():
    res = run("verify", "--suite", "prop1", "--count", "25")
    assert res.exit_code == 0, res.output
    assert "25/25" in res.output
