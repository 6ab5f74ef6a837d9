import json

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
