"""Check reports: one record per obligation, renderable as text or JSON.

Reports are deterministic: records appear in the order the checks generated
them, and identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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

    def to_doc(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "counts": self.counts,
            "records": [
                {"check": r.check, "inputs": r.inputs, "window": r.window,
                 "verdict": r.verdict, "witness": r.witness}
                for r in self.records
            ],
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"
