"""Check reports: one record per obligation, renderable as text or JSON,
and the one JSON text writer of the package.

Reports are deterministic: records appear in the order the checks generated
them, and identical inputs produce byte-identical output.  _emit writes what
``json.dumps(node, indent=k)`` writes, for any indent step k, without the
pure-Python encoder that ``indent`` selects; it serves Report.to_json (step
2, the keys laid out in sorted order) and document.serialize (step 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass(frozen=True)
class CheckRecord:
    check: str
    inputs: str = ""
    window: str = ""
    verdict: str = PASS
    witness: str = ""

    def line(self) -> str:
        bits = [f"[{self.verdict.upper():4}] {self.check}"]
        if self.inputs:
            bits.append(f"inputs: {self.inputs}")
        if self.window:
            bits.append(f"window: {self.window}")
        if self.witness:
            bits.append(f"witness: {self.witness}")
        return "  |  ".join(bits)


@dataclass
class Report:
    suite: str
    records: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def record(self, check, verdict=PASS, inputs="", window="", witness=""):
        self.records.append(CheckRecord(check, inputs, window, verdict, witness))

    def ok(self, check, inputs="", window=""):
        self.record(check, PASS, inputs, window)

    def fail(self, check, inputs="", window="", witness=""):
        self.record(check, FAIL, inputs, window, witness)

    def judge(self, check, witness, inputs="", window=""):
        """Record a check that fails exactly when it has a witness."""
        self.record(check, FAIL if witness else PASS, inputs, window, witness or "")

    def note(self, text):
        self.notes.append(text)

    def extend(self, other: "Report"):
        self.records.extend(other.records)
        self.notes.extend(other.notes)

    @property
    def passed(self) -> bool:
        return all(r.verdict != FAIL for r in self.records)

    @property
    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, SKIP: 0}
        for r in self.records:
            out[r.verdict] = out.get(r.verdict, 0) + 1
        return out

    def failures(self):
        return [r for r in self.records if r.verdict == FAIL]

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        lines += [r.line() for r in self.records]
        lines += [f"note: {n}" for n in self.notes]
        c = self.counts
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'} "
                     f"({c[PASS]} passed, {c[FAIL]} failed, {c[SKIP]} skipped)")
        return "\n".join(lines)

    def to_json(self) -> str:
        """The report as JSON with an indent of 2 and sorted keys, and a final
        newline; the keys are laid out here in sorted order."""
        doc = {
            "counts": dict(sorted(self.counts.items())),
            "notes": self.notes,
            "passed": self.passed,
            "records": [
                {"check": r.check, "inputs": r.inputs, "verdict": r.verdict,
                 "window": r.window, "witness": r.witness}
                for r in self.records
            ],
            "suite": self.suite,
        }
        return _emit(doc, "\n", "  ") + "\n"


class Chunk:
    """A node that _emit does not descend into: its text(newline_indent)
    writes it at the depth it is given."""

    __slots__ = ()


def _emit(node, newline_indent: str, step: str = " ") -> str:
    """``json.dumps(node, indent=len(step))`` for a node whose lines are
    indented by ``newline_indent`` (a line break and the node's depth in
    spaces); each level of nesting adds ``step``.  Strings, ints, bools, None
    and lists and str-keyed dicts of them are written here, each container
    joined from its children's texts rather than kept as one chunk per token
    until the end.  A Chunk writes itself at this depth.  Any other node is
    handed to json.dumps, whose output shifts to any depth because a JSON
    text has line breaks only between its tokens."""
    kind = type(node)
    if kind is str:
        return _quote(node)
    if kind is int:
        return int.__repr__(node)
    if kind is list:
        if not node:
            return "[]"
        inner = newline_indent + step
        items = [_emit(item, inner, step) for item in node]
        return f"[{inner}{(',' + inner).join(items)}{newline_indent}]"
    if kind is dict and all(type(key) is str for key in node):
        if not node:
            return "{}"
        inner = newline_indent + step
        items = [f"{_quote(key)}: {_emit(value, inner, step)}" for key, value in node.items()]
        return f"{{{inner}{(',' + inner).join(items)}{newline_indent}}}"
    if node is None:
        return "null"
    if node is True:
        return "true"
    if node is False:
        return "false"
    if isinstance(node, Chunk):
        return node.text(newline_indent)
    return json.dumps(node, indent=len(step)).replace("\n", newline_indent)
