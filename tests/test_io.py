import json

import numpy as np
import pytest

from qlocc import make_state
from qlocc.io import DocumentError, emit_document, parse_document, sweep_csv
from qlocc.ueb import GeneratorParams, generate_eq1

from conftest import SQ2


def doc_text(states, **extra):
    return json.dumps({"states": states, **extra})


BELL = [[[SQ2, 0], [0, 0], [0, 0], [SQ2, 0]]]
PAIR = BELL + [[[SQ2, 0], [0, 0], [0, 0], [-SQ2, 0]]]


class TestParseDocument:
    def test_round_trip(self):
        ens = generate_eq1(GeneratorParams(0.3, 0.4))
        parsed = parse_document(emit_document(ens, ["a", "b", "c"]))
        assert parsed.labels == ("a", "b", "c")
        for s, t in zip(parsed.ensemble.states, ens.states):
            np.testing.assert_allclose(s.amps, t.amps, atol=1e-15)

    def test_invalid_json(self):
        with pytest.raises(DocumentError, match="invalid JSON"):
            parse_document("{nope")

    def test_missing_states(self):
        with pytest.raises(DocumentError, match="states"):
            parse_document("{}")

    def test_bad_amplitude_named_by_path(self):
        bad = PAIR[0], [[SQ2, 0], [0, 0], ["x", 0], [-SQ2, 0]]
        with pytest.raises(DocumentError, match=r"states\[1\]\[2\]"):
            parse_document(doc_text(list(bad)))

    def test_wrong_amplitude_count(self):
        with pytest.raises(DocumentError, match=r"states\[0\]"):
            parse_document(doc_text([[[1, 0]]]))

    def test_orthogonality_violation_reported(self):
        with pytest.raises(Exception, match="not orthogonal"):
            parse_document(doc_text([BELL[0], BELL[0]]))

    def test_label_count_mismatch(self):
        with pytest.raises(DocumentError, match="labels"):
            parse_document(doc_text(PAIR, labels=["only-one"]))

    def test_tolerance_overrides(self):
        parsed = parse_document(doc_text(PAIR, tolerances={"eps_zero": 1e-6}))
        assert parsed.ensemble.tolerances.eps_zero == 1e-6

    @pytest.mark.parametrize("value", [True, 0, -1e-9, float("nan"), float("inf"), "1e-9"])
    def test_bad_tolerance_named_by_path(self, value):
        with pytest.raises(DocumentError, match=r"tolerances\.eps_zero"):
            parse_document(doc_text(PAIR, tolerances={"eps_zero": value}))

    @pytest.mark.parametrize(
        "value", [True, float("nan"), -float("inf"), pytest.param(10**400, id="int-overflow")]
    )
    def test_non_finite_or_bool_amplitude_named_by_path(self, value):
        bad = PAIR[0], [[SQ2, 0], [0, 0], [0, value], [-SQ2, 0]]
        with pytest.raises(DocumentError, match=r"states\[1\]\[2\]"):
            parse_document(doc_text(list(bad)))

    def test_unknown_tolerance_key(self):
        with pytest.raises(DocumentError, match="unknown"):
            parse_document(doc_text(PAIR, tolerances={"epsilon": 1}))


class TestSweepCsv:
    def test_formatting(self):
        records = [
            {
                "lambda1": 0.1,
                "lambda3": 0.2,
                "class": "OneUnidentifiable",
                "unidentifiable": [0],
                "avg_entanglement": 0.123456789012345,
                "is_ueb": True,
            },
            {
                "lambda1": 0.3,
                "lambda3": None,
                "class": "TwoUnidentifiable",
                "unidentifiable": [1, 2],
                "avg_entanglement": 0.5,
                "is_ueb": False,
            },
        ]
        text = sweep_csv(records)
        lines = text.split("\n")
        assert lines[0] == "lambda1,lambda3,class,unidentifiable,avg_entanglement,is_ueb"
        assert lines[1] == "0.1,0.2,OneUnidentifiable,0,0.123456789012,true"
        assert lines[2] == "0.3,,TwoUnidentifiable,1;2,0.5,false"
        assert text.endswith("\n") and "\r" not in text

    def test_byte_stable(self):
        rec = {
            "lambda1": 1 / 3,
            "lambda3": 2 / 3,
            "class": "X",
            "unidentifiable": [],
            "avg_entanglement": np.pi / 4,
            "is_ueb": False,
        }
        assert sweep_csv([rec]).encode() == sweep_csv([dict(rec)]).encode()
