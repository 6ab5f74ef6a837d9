"""Report.to_json against the json.dumps(indent=2, sort_keys=True) of the
report's document, the writer it used before it shared _emit with
document.serialize."""

import json

from hypothesis import given, settings, strategies as st

from mosva.report import FAIL, PASS, SKIP, Report


def _doc(rep: Report) -> dict:
    """The report's document, in the field order it was built in."""
    return {
        "suite": rep.suite,
        "passed": rep.passed,
        "counts": rep.counts,
        "records": [
            {"check": r.check, "inputs": r.inputs, "window": r.window,
             "verdict": r.verdict, "witness": r.witness}
            for r in rep.records
        ],
        "notes": list(rep.notes),
    }


def _dumped(rep: Report) -> str:
    return json.dumps(_doc(rep), indent=2, sort_keys=True) + "\n"


# arbitrary code points, astral ones and controls included, and the
# characters JSON escapes
_texts = (st.text(alphabet=st.characters(codec="utf-8"), max_size=12)
          | st.sampled_from(["", "\"", "\\", "\n\t\r\x00\x1f\x7f", "é 😀 \U0010ffff",
                             "a/b", " ퟿"]))
_records = st.tuples(_texts, st.sampled_from([PASS, FAIL, SKIP]), _texts, _texts, _texts)


@settings(max_examples=200, deadline=None)
@given(_texts, st.lists(_records, max_size=5), st.lists(_texts, max_size=3))
def test_to_json_is_json_dumps_of_the_document(suite, records, notes):
    rep = Report(suite)
    for check, verdict, inputs, window, witness in records:
        rep.record(check, verdict, inputs, window, witness)
    for text in notes:
        rep.note(text)
    assert rep.to_json() == _dumped(rep)


def test_every_verdict_and_empty_parts():
    rep = Report("structural")
    assert rep.to_json() == _dumped(rep)
    assert '"records": [],' in rep.to_json() and '"notes": [],' in rep.to_json()
    rep.ok("a", inputs="x")
    rep.fail("b", witness="w")
    rep.record("c", SKIP, window="z1 in [0, 3]")
    rep.note("n")
    assert rep.counts == {PASS: 1, FAIL: 1, SKIP: 1}
    assert rep.to_json() == _dumped(rep)
    assert not json.loads(rep.to_json())["passed"]
