"""The benchmark workloads and their known-answer judges.

Every workload has a ``setup`` that builds its inputs, a list of timed
items (each one verdict of the program), and a ``gate`` of known-answer
checks that runs outside the timed region.  Items call ``mosva`` through
module attributes at call time, so the tracer's rebinding sees them.

Why these workloads:

* ``suite`` runs the axiom checks on one Heisenberg table through
  ``vertex``, ``graded``, ``laurent.taylor_shift`` and ``checks``.  It only
  reads tables and never enters ``correlators``, ``expansion`` or
  ``constructions``.
* ``correlators`` spends its time in ``correlators``, ``expansion`` (both
  region kinds) and ``LaurentPoly`` multiplication; 3-point correlators
  that need pole-order bump trials form its latency tail.
* ``roundtrip`` is the CLI round trip: it writes whole new tables
  (opposite, transports, contragredient) and parses and serializes
  instance files, so work moved into construction shows here.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import mosva
from mosva import cli, factory
from mosva.errors import WindowError

# boson levels the seed draws from; nonzero, with non-integers
LEVELS = (Fraction(1), Fraction(3, 2), Fraction(-2), Fraction(1, 3))

CONFIGS = {
    "full": {
        "suite": {"cutoff": 5, "assoc_bound": 4, "fault_weight": 3},
        "correlators": {"cutoff": 5, "bound": 4, "region_bound": 4,
                        "order": 6, "step": 10, "tail_ms": 100},
        "roundtrip": {"cutoff": 5},
        "oracle_samples": 24,
    },
    "smoke": {
        "suite": {"cutoff": 4, "assoc_bound": 2, "fault_weight": 3},
        "correlators": {"cutoff": 5, "bound": 2, "region_bound": 3,
                        "order": 3, "step": 4, "tail_ms": 100},
        "roundtrip": {"cutoff": 3},
        "oracle_samples": 6,
    },
}

# acceptance-10 fault list: (example, suite that must catch it, key, max weight)
FAULTS = (
    ("heisenberg", "vacuum", ("vac", -1, "a1"), None),
    ("heisenberg", "D", ("a1", -2, "a1"), None),
    ("heisenberg", "mobius", ("a2", 2, "a1"), None),
    ("heisenberg", "assoc", ("a1", -1, "a1"), None),
    ("matrix", "vacuum", ("E11", -1, "E11"), None),
    ("matrix", "vacuum", ("E12", -1, "E22"), None),
    ("matrix", "assoc", ("E12", -1, "E21"), 0),
)

DATA = Path(__file__).resolve().parent / "data"


@dataclass(frozen=True)
class Verdict:
    decided: bool   # the program gave a pass or fail verdict
    agrees: bool    # that verdict, and every digest, match the known answer
    detail: str = ""


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    judge: Callable[[object], Verdict]


class Digests:
    """sha256 of every machine report and instance file, keyed per level.

    In record mode the first digest seen for a key is stored; a later
    different digest for the same key is still a mismatch."""

    def __init__(self, table: dict, record: bool = False):
        self.table = table
        self.record = record

    def matches(self, key: str, data) -> bool:
        if isinstance(data, str):
            data = data.encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        if self.record and key not in self.table:
            self.table[key] = digest
        return self.table.get(key) == digest


def load_json(name: str):
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


def level_text(level: Fraction) -> str:
    return mosva.format_scalar(level)


def _triples(sp1, sp2, sp3, bound):
    return [(a, b, c) for a in sp1.labels() for b in sp2.labels()
            for c in sp3.labels()
            if sp1.weight_of(a) + sp2.weight_of(b) + sp3.weight_of(c) <= bound]


def _failure_witnessed(rep) -> bool:
    fails = rep.failures()
    return bool(fails) and bool(fails[0].witness)


def _oracle_module(root: Path):
    """tests/oracle_oscillator.py, imported read-only by path."""
    spec = importlib.util.spec_from_file_location(
        "oracle_oscillator", root / "tests" / "oracle_oscillator.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def oracle_cross_check(root: Path, alg, level, rng, samples: int):
    """Compare a seeded sample of stored structure constants, and of modes in
    range that are not stored (so read as exact zero), with the independent
    oscillator recursion.  Returns a list of (name, ok, detail)."""
    oracle = _oracle_module(root).Oracle(level)
    ymap = alg.Y
    stored = sorted(ymap.entries)
    unstored = []
    for f in alg.space.labels():
        for s in alg.space.labels():
            for n in ymap.mode_range(f, s):
                if (f, n, s) not in ymap.entries:
                    unstored.append((f, n, s))
    picks = rng.sample(stored, min(samples, len(stored)))
    picks += rng.sample(unstored, min(samples // 2, len(unstored)))
    bad = []
    for f, n, s in picks:
        want = oracle.mode(factory.label_partition(f), n, factory.label_partition(s))
        hit = ymap.entries.get((f, n, s))
        got = {} if hit is None else {factory.label_partition(l): c
                                      for l, c in hit.entries.items()}
        if got != want:
            bad.append(f"({f}, {n}, {s})")
    return [("oracle cross-check", not bad,
             f"{len(picks)} modes" + (f", mismatch at {bad[0]}" if bad else ""))]


class _Workload:
    """Shared state: config section, level, seeded rng, digest table."""

    name = ""

    def __init__(self, cfg, level, rng, digests, root):
        self.cfg, self.level, self.rng = cfg[self.name], level, rng
        self.oracle_samples = cfg["oracle_samples"]
        self.digests, self.root = digests, root
        self.key = f"{self.name}/{level_text(level)}"


# -- suite: axiom checks on one table ------------------------------------------


class Suite(_Workload):
    name = "suite"

    def setup(self):
        alg, fock = mosva.build_heisenberg(self.level, cutoff=self.cfg["cutoff"])
        return {"alg": alg, "fock": fock, "matrix": mosva.matrix_units_mosva(2)}

    def items(self, st):
        alg, fock = st["alg"], st["fock"]
        out = []
        for suite in ("structural", "grading", "vacuum", "D", "mobius"):
            out.append(self._report_item(f"run_suite {suite}", alg, suite))
        bound = self.cfg["assoc_bound"]
        for target, ket_space, tag in ((alg, alg.space, "algebra"),
                                       (fock, fock.space, "left")):
            for a, b, c in _triples(alg.space, alg.space, ket_space, bound):
                out.append(Item(
                    f"assoc {tag} ({a}, {b}, {c})",
                    _assoc_run(target, alg.basis_vec(a), alg.basis_vec(b),
                               target.basis_vec(c)),
                    _assoc_judge))
        for example, suite, key, max_weight in FAULTS:
            inst = alg if example == "heisenberg" else st["matrix"]
            weight = self.cfg["fault_weight"] if max_weight is None else max_weight
            out.append(self._fault_item(example, inst, suite, key, weight))
        return out

    def _report_item(self, name, inst, suite):
        digest_key = f"{self.key}/{name}"

        def run():
            rep = mosva.run_suite(inst, suite)
            return rep.passed, rep.to_json()

        def judge(out):
            passed, text = out
            ok = passed and self.digests.matches(digest_key, text)
            return Verdict(True, ok, "" if ok else "verdict or digest differs")
        return Item(name, run, judge)

    def _fault_item(self, example, inst, suite, key, max_weight):
        name = f"fault {example} {suite} {key}"
        digest_key = f"{self.key}/{name}"

        def run():
            bad = mosva.with_scaled_entry(inst, key, 2)
            rep = mosva.run_suite(bad, suite, max_weight=max_weight)
            return rep, rep.to_json()

        def judge(out):
            rep, text = out
            caught = not rep.passed and _failure_witnessed(rep)
            ok = caught and self.digests.matches(digest_key, text)
            return Verdict(True, ok, "" if ok else "fault missed or digest differs")
        return Item(name, run, judge)

    def gate(self, st):
        checks = []
        rep = mosva.run_suite(st["matrix"], "all")
        checks.append(("matrix run_suite all passes", rep.passed, ""))
        checks.append(("matrix report digest",
                       self.digests.matches(f"{self.key}/matrix all", rep.to_json()), ""))
        checks += oracle_cross_check(self.root, st["alg"], self.level, self.rng,
                                     self.oracle_samples)
        return checks


def _assoc_run(inst, first, second, ket):
    return lambda: mosva.check_weak_associativity(inst, first, second, ket)


def _assoc_judge(res):
    return Verdict(True, res.passed, "" if res.passed else res.first_difference)


# -- correlators -----------------------------------------------------------------


def correlator_calls(alg, bra, ops, ket, region, order):
    """The timed calls of one correlator item: correlate, estimate pole
    orders, reconstruct and, for ``region``, check region consistency.
    Returns (series, witness, reconstruction, region outcome); the region
    outcome is None, "window", or (passed, machine report)."""
    series = mosva.correlate(alg, bra, ops, ket)
    if series.is_zero():
        return series, None, None, None
    witness = mosva.estimate_pole_orders(alg, bra, ops, ket, series)
    rec = mosva.reconstruct_rational(series, witness)
    reg = None
    if region:
        try:
            rep = mosva.check_region_consistency(alg, bra, ops, ket, order=order,
                                                 witness=witness)
            reg = (rep.passed, rep.to_json())
        except WindowError:
            reg = "window"
    return series, witness, rec, reg


class Correlators(_Workload):
    name = "correlators"

    def __init__(self, cfg, level, rng, digests, root, config_name):
        super().__init__(cfg, level, rng, digests, root)
        self.family = load_json(f"family-{config_name}.json")
        if (self.family["cutoff"], self.family["bound"]) != (self.cfg["cutoff"],
                                                            self.cfg["bound"]):
            raise ValueError("correlator family file does not match the config")
        self.offset = rng.randrange(self.cfg["step"])

    def sample(self, space):
        """Every correlator whose full data weighs at most ``region_bound``
        (these also go through region consistency) or whose recorded cost
        reaches ``tail_ms`` (the latency tail), plus a systematic seeded
        sample of the rest taken in order of recorded cost, so that every
        seed draws alike from each cost range.  Returns (light, heavy)."""
        light, rest = [], []
        for ops, ket, bra, cost_ms in self.family["items"]:
            entry = (tuple(ops.split(",")), ket, bra)
            full = sum(space.weight_of(l) for l in entry[0]) + space.weight_of(ket) \
                + space.weight_of(bra)
            if full <= self.cfg["region_bound"]:
                light.append(entry)
            else:
                rest.append((cost_ms, entry))
        rest.sort(key=lambda r: -r[0])
        tail = [e for c, e in rest if c >= self.cfg["tail_ms"]]
        body = [e for c, e in rest if c < self.cfg["tail_ms"]]
        return light, tail + body[self.offset::self.cfg["step"]]

    def setup(self):
        alg, _ = mosva.build_heisenberg(self.level, cutoff=self.cfg["cutoff"])
        light, heavy = self.sample(alg.space)
        inputs = []
        for entries, region in ((light, True), (heavy, False)):
            for ops, ket, bra in entries:
                inputs.append((ops, ket, bra, region,
                               [(alg.basis_vec(l), f"z{i + 1}") for i, l in enumerate(ops)],
                               alg.basis_vec(ket), mosva.basis_dual(alg.space, bra)))
        return {"alg": alg, "inputs": inputs}

    def items(self, st):
        alg = st["alg"]
        return [self._item(alg, *entry) for entry in st["inputs"]]

    def _item(self, alg, op_labels, ket_lbl, bra_lbl, region, ops, ket, bra):
        name = f"<{bra_lbl}| {','.join(op_labels)} |{ket_lbl}>"
        digest_key = f"{self.key}/{name}"
        order = self.cfg["order"]

        def run():
            return correlator_calls(alg, bra, ops, ket, region, order)

        def judge(out):
            series, witness, rec, reg = out
            if rec is None:
                return Verdict(True, False, "series is zero, known nonzero")
            if rec.certified:
                rng = rec.fn.numerator.total_degree_range()
                want = (sum(rec.fn.pole_axis.values()) + sum(rec.fn.pole_diag.values())
                        + series.degree_sum)
                if rng is not None and not (rng[0] == rng[1] == want):
                    return Verdict(True, False, f"numerator degrees {rng}, want {want}")
            elif not rec.detail.startswith("window does not certify"):
                return Verdict(True, False, f"not window-limited: {rec.detail}")
            decided = rec.certified
            if region:
                if reg == "window":
                    decided = False
                else:
                    passed, text = reg
                    if not passed:
                        return Verdict(True, False, "region expansions disagree")
                    if not self.digests.matches(digest_key, text):
                        return Verdict(True, False, "region report digest differs")
            return Verdict(decided, True)
        return Item(name, run, judge)

    def gate(self, st):
        alg = st["alg"]
        a = alg.basis_vec("a1")
        bra = mosva.basis_dual(alg.space, "vac")
        ops = [(a, "z1"), (a, "z2")]
        series = mosva.correlate(alg, bra, ops, alg.vacuum)
        witness = mosva.estimate_pole_orders(alg, bra, ops, alg.vacuum, series)
        rec = mosva.reconstruct_rational(series, witness)
        ok = (rec.certified and rec.fn.pole_diag == {("z1", "z2"): 2}
              and rec.fn.pole_axis == {}
              and rec.fn.numerator.terms == {(0, 0): self.level})
        checks = [("2-point function is level/(z1-z2)^2", ok, str(rec.fn))]
        checks += oracle_cross_check(self.root, alg, self.level, self.rng,
                                     self.oracle_samples)
        return checks


# -- roundtrip: the CLI round trip ----------------------------------------------


def _cli(argv):
    """mosva.cli.main in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _double_dual_entries(cg2):
    """The double contragredient's left modes with the two primes removed."""
    return {(u, n, w[:-2]): {l[:-2]: c for l, c in out.entries.items()}
            for (u, n, w), out in cg2.YL.entries.items() if not out.is_zero()}


class Roundtrip(_Workload):
    name = "roundtrip"

    def __init__(self, cfg, level, rng, digests, root, workdir):
        super().__init__(cfg, level, rng, digests, root)
        self.dir = workdir

    def path(self, name):
        return os.path.join(self.dir, name)

    def setup(self):
        base = ["example", "heisenberg", "--cutoff", str(self.cfg["cutoff"]),
                "--level", level_text(self.level)]
        codes = (_cli(base + ["-o", self.path("h.mosva")])[0],
                 _cli(base + ["--module", "left", "-o", self.path("fock.mosva")])[0])
        return {"codes": codes}

    def items(self, st):
        p = self.path
        return [
            self._cli_item("check grading", ["check", p("h.mosva"), "--suite", "grading",
                                             "--report", "machine"], stdout=True),
            self._cli_item("oppose", ["oppose", p("h.mosva"), "-o", p("hop.mosva")],
                           output=p("hop.mosva")),
            self._cli_item("transport left_to_right_op",
                           ["transport", p("fock.mosva"), "--direction",
                            "left_to_right_op", "-o", p("t1.mosva")], output=p("t1.mosva")),
            self._cli_item("transport right_op_to_left",
                           ["transport", p("t1.mosva"), "--direction",
                            "right_op_to_left", "-o", p("t2.mosva")], output=p("t2.mosva")),
            self._cli_item("contragredient",
                           ["contragredient", p("fock.mosva"), "-o", p("cg.mosva")],
                           output=p("cg.mosva")),
            self._cli_item("check contragredient structural",
                           ["check", p("cg.mosva"), "--suite", "structural",
                            "--report", "machine"], stdout=True),
            Item("transport round trip", self._transport_back, _equal_judge),
            Item("double opposite", self._double_opposite, _equal_judge),
            Item("double contragredient", self._double_contragredient, _equal_judge),
        ]

    def _cli_item(self, name, argv, stdout=False, output=None):
        digest_key = f"{self.key}/{name}"

        def run():
            code, text = _cli(argv)
            return code, (text if stdout else _read_bytes(output))

        def judge(out):
            code, data = out
            ok = code == cli.EXIT_PASS and self.digests.matches(digest_key, data)
            return Verdict(True, ok, "" if ok else f"exit {code} or digest differs")
        return Item(name, run, judge)

    def _transport_back(self):
        return mosva.load(self.path("t2.mosva")).YL == mosva.load(self.path("fock.mosva")).YL

    def _double_opposite(self):
        src = mosva.load(self.path("h.mosva"))
        twice = mosva.opposite_mosva(mosva.load(self.path("hop.mosva"))).result
        return twice.Y == src.Y and twice.vacuum == src.vacuum

    def _double_contragredient(self):
        W = mosva.load(self.path("fock.mosva"))
        cg2 = mosva.contragredient_module(mosva.load(self.path("cg.mosva")))
        want = {k: dict(v.entries) for k, v in W.YL.entries.items() if not v.is_zero()}
        return _double_dual_entries(cg2) == want

    def gate(self, st):
        checks = [("example commands exit 0", st["codes"] == (0, 0), str(st["codes"]))]
        for name in ("h.mosva", "fock.mosva"):
            checks.append((f"{name} digest", self.digests.matches(
                f"{self.key}/example {name}", _read_bytes(self.path(name))), ""))
        alg = mosva.load(self.path("h.mosva"))
        checks += oracle_cross_check(self.root, alg, self.level, self.rng,
                                     self.oracle_samples)
        return checks

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _equal_judge(equal):
    return Verdict(True, bool(equal), "" if equal else "does not give back the source")
