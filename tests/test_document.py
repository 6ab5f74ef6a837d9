import json
from collections import Counter
from fractions import Fraction

import pytest

from mosva.constructions import contragredient_module, opposite_mosva
from mosva.document import deserialize, from_document, serialize, to_document
from mosva.errors import SchemaError
from mosva.factory import build_heisenberg, matrix_units_mosva, self_module
from mosva.vertex import validate_instance


def same_algebra(a, b):
    return (a.space == b.space and a.Y == b.Y and a.vacuum == b.vacuum
            and a.D == b.D and a.L1 == b.L1)


def same_module(a, b):
    return (a.side == b.side and a.space == b.space and a.YL == b.YL
            and a.YR == b.YR and a.D == b.D and a.L1 == b.L1 and a.N0 == b.N0
            and same_algebra(a.algebra, b.algebra))


def test_roundtrip_matrix():
    m = matrix_units_mosva(2)
    again = deserialize(serialize(m))
    assert same_algebra(m, again)


def test_roundtrip_heisenberg_and_fock():
    alg, fock = build_heisenberg(level="3/2", cutoff=4)
    assert same_algebra(alg, deserialize(serialize(alg)))
    again = deserialize(serialize(fock))
    assert same_module(fock, again)


def test_roundtrip_constructed_instances():
    alg, fock = build_heisenberg(level=1, cutoff=3)
    opp = opposite_mosva(alg).result
    assert same_algebra(opp, deserialize(serialize(opp)))
    cg = contragredient_module(fock)
    assert same_module(cg, deserialize(serialize(cg)))
    right = self_module(alg, "right")
    assert same_module(right, deserialize(serialize(right)))


def test_serialization_is_byte_stable():
    a1 = serialize(build_heisenberg(level=1, cutoff=3)[0])
    a2 = serialize(build_heisenberg(level=1, cutoff=3)[0])
    assert a1 == a2
    assert a1.endswith("\n") and "\r" not in a1


def test_rejects_zero_denominator_scalar():
    doc = to_document(matrix_units_mosva(2))
    doc["vacuum"] = [["E11", "1/0"]]
    with pytest.raises(SchemaError, match="denominator"):
        from_document(doc)


def test_rejects_unknown_field_with_path():
    doc = to_document(matrix_units_mosva(2))
    doc["surprise"] = 1
    with pytest.raises(SchemaError, match="unknown field 'surprise'"):
        from_document(doc)
    doc = to_document(matrix_units_mosva(2))
    doc["operators"]["L2"] = {}
    with pytest.raises(SchemaError, match=r"operators.*unknown field"):
        from_document(doc)


def test_rejects_bad_json_with_position():
    with pytest.raises(SchemaError, match="line"):
        deserialize("{\n  broken\n}")


def test_rejects_unknown_labels_and_kinds():
    doc = to_document(matrix_units_mosva(2))
    doc["vertex"][0][0] = "E99"
    with pytest.raises(SchemaError, match="E99"):
        from_document(doc)
    with pytest.raises(SchemaError, match="kind"):
        from_document({"kind": "poset"})


def test_inhomogeneous_entry_parses_but_fails_validation():
    alg, _ = build_heisenberg(level=1, cutoff=3)
    doc = to_document(alg)
    # redirect one output vector to a wrong-weight label
    for rec in doc["vertex"]:
        if rec[0] == "a1" and rec[1] == 1 and rec[2] == "a1":
            rec[3] = [["a2", "1"]]
            break
    inst = from_document(doc)  # parsing succeeds
    rep = validate_instance(inst)
    assert not rep.passed
    assert any("homogeneity" in r.check for r in rep.failures())


def test_format_version_guard():
    doc = to_document(matrix_units_mosva(2))
    doc["format_version"] = 99
    with pytest.raises(SchemaError, match="format_version"):
        from_document(doc)


def test_roundtrip_preserves_absent_entries_and_n0():
    from mosva.graded import GradedOp, Vec
    from mosva.vertex import LEFT, ModuleInstance, VertexMap

    alg, fock = build_heisenberg(level=1, cutoff=3)
    entries = dict(fock.YL.entries)
    gap = ("a1", -1, "a1")
    entries.pop(gap)
    yl = VertexMap(LEFT, alg.space, fock.space, fock.space, entries, [gap])
    n0 = GradedOp(fock.space, 0, {l: Vec(fock.space) for l in fock.space.labels()})
    mod = ModuleInstance("left", fock.space, alg, YL=yl, D=fock.D,
                         L1=fock.L1, N0=n0)
    again = deserialize(serialize(mod))
    assert again.YL.absent == frozenset([gap])
    assert again.N0 == n0
    from mosva.vertex import mode_apply
    _, exact = mode_apply(again.YL, alg.basis_vec("a1"), -1,
                          again.basis_vec("a1"))
    assert not exact


@pytest.mark.parametrize("side, extra", [("left", "vertex_right"),
                                         ("right", "vertex_left")])
def test_one_sided_document_rejects_the_other_map(side, extra):
    # a map the side does not have would be checked as if it belonged there
    doc = to_document(self_module(matrix_units_mosva(2), side))
    doc[extra] = to_document(self_module(matrix_units_mosva(2), "bi"))[extra]
    with pytest.raises(SchemaError, match=f"{side} module has no"):
        deserialize(json.dumps(doc))


def constructed_instances():
    """Every instance the round-trip tests above construct."""
    from mosva.graded import GradedOp, Vec
    from mosva.vertex import LEFT, ModuleInstance, VertexMap

    alg, fock = build_heisenberg(level="3/2", cutoff=4)
    small, small_fock = build_heisenberg(level=1, cutoff=3)
    entries = dict(small_fock.YL.entries)
    gap = ("a1", -1, "a1")
    entries.pop(gap)
    yl = VertexMap(LEFT, small.space, small_fock.space, small_fock.space, entries, [gap])
    n0 = GradedOp(small_fock.space, 0,
                  {l: Vec(small_fock.space) for l in small_fock.space.labels()})
    return [matrix_units_mosva(2), alg, fock, opposite_mosva(small).result,
            contragredient_module(small_fock), self_module(small, "right"),
            ModuleInstance("left", small_fock.space, small, YL=yl, D=small_fock.D,
                           L1=small_fock.L1, N0=n0)]


def test_load_of_save_is_the_instance(tmp_path):
    from mosva.document import load, save
    from mosva.vertex import AlgebraInstance

    for i, inst in enumerate(constructed_instances()):
        path = tmp_path / f"{i}.mosva"
        save(inst, path)
        again = load(path)
        same = same_algebra if isinstance(inst, AlgebraInstance) else same_module
        assert same(inst, again), i
        assert serialize(again) == serialize(inst)


def test_each_malformed_scalar_raises_at_its_own_path():
    doc = to_document(matrix_units_mosva(2))
    doc["vacuum"] = [["E11", "1/x"]]
    doc["operators"]["D"]["E11"] = [["E11", "1/x"]]
    with pytest.raises(SchemaError) as first:
        from_document(doc)
    assert first.value.path == "$.vacuum[0]"
    # the failed text was not remembered: its next occurrence raises too
    doc["vacuum"] = [["E11", "1"]]
    with pytest.raises(SchemaError) as second:
        from_document(doc)
    assert second.value.path == "$.operators.D.E11[0]"
    doc["operators"]["D"]["E11"] = [["E11", 1]]
    with pytest.raises(SchemaError, match="must be a string") as third:
        from_document(doc)
    assert third.value.path == "$.operators.D.E11[0]"
    doc["operators"]["D"]["E11"] = [["E11", ["1"]]]
    with pytest.raises(SchemaError) as fourth:
        from_document(doc)
    assert fourth.value.path == "$.operators.D.E11[0]"


def test_zero_coefficients_parse_as_the_vec_constructor_reads_them():
    from mosva.document import _parse_vec
    from mosva.graded import Vec

    space = matrix_units_mosva(2).space
    pairs = [["E12", "0"], ["E11", "2/4"], ["E21", "-3"], ["E11", "0"],
             ["E22", "0/5"], ["E21", "7"], ["E12", "1"]]
    got = _parse_vec(pairs, space, "$", {})
    # a repeated label keeps its first place and its last value
    want = Vec(space, {l: Fraction(c) for l, c in pairs})
    assert got == want
    assert list(got.entries.items()) == list(want.entries.items())
    assert all(type(c) is Fraction and c for c in got.entries.values())
    assert _parse_vec([["E11", "0"]], space, "$", {}) == Vec(space)


def vector_scalars(node):
    """The scalar texts of every [label, scalar] pair in a document."""
    if isinstance(node, dict):
        return [t for k, v in node.items() if k != "weights"
                for t in vector_scalars(v)]
    if isinstance(node, list):
        if len(node) == 2 and all(isinstance(x, str) for x in node):
            return [node[1]]
        return [t for v in node for t in vector_scalars(v)]
    return []


def test_documents_share_no_scalar_memo(monkeypatch):
    from mosva import document

    calls = []
    real = document.parse_scalar
    monkeypatch.setattr(document, "parse_scalar", lambda t: calls.append(t) or real(t))
    doc = to_document(build_heisenberg(level="3/2", cutoff=3)[1])
    runs = []
    for _ in range(2):
        calls.clear()
        from_document(doc)
        runs.append(Counter(calls))
    # each parse starts from an empty memo and parses every vector scalar
    # text once; cutoffs and weights are parsed where they stand
    spaces = [doc, doc["algebra"]]
    want = Counter([d["cutoff"] for d in spaces]
                   + [w for d in spaces for w, _ in d["weights"]])
    want.update(set(vector_scalars(doc)))
    assert runs == [want, want]
