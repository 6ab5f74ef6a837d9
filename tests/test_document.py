import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mosva.constructions import contragredient_module, opposite_mosva
from mosva.document import deserialize, from_document, load, save, serialize, to_document
from mosva.report import _emit
from mosva.errors import SchemaError
from mosva.factory import build_heisenberg, matrix_units_mosva, self_module, with_scaled_entry
from mosva.vertex import BI, LEFT, RIGHT, validate_instance


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


def test_overlong_integer_literal_is_a_schema_error():
    # json.loads raises a bare ValueError, not JSONDecodeError, for an int
    # literal beyond the int string conversion limit
    with pytest.raises(SchemaError, match="integer string conversion") as err:
        deserialize('{"kind": 1' + "0" * 5000 + "}")
    assert err.value.path == "$"


@pytest.mark.parametrize("text", ["[" * 100000, '{"a": ' * 100000])
def test_deeply_nested_json_is_a_schema_error(text):
    # json.loads raises RecursionError, neither a ValueError nor a
    # JSONDecodeError, when the nesting outruns the interpreter's stack
    with pytest.raises(SchemaError, match="nested too deeply") as err:
        deserialize(text)
    assert err.value.path == "$"


def test_failed_save_leaves_the_file_as_it_was(tmp_path):
    from mosva.document import save

    path = tmp_path / "m.mosva"
    save(matrix_units_mosva(2), path)
    before = path.read_bytes()
    with pytest.raises(TypeError, match="cannot serialize"):
        save(object(), path)
    assert path.read_bytes() == before


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


def _module_doc():
    return to_document(self_module(matrix_units_mosva(2), "bi"))


def _set(*keys_and_value):
    """A mutation that sets doc[k0][k1]...[kn] = value."""
    *keys, value = keys_and_value

    def mutate(doc):
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
    return mutate


def _append_copy(key, i):
    return lambda doc: doc[key].append(json.loads(json.dumps(doc[key][i])))


def _absent_of(key, i):
    return lambda doc: doc.__setitem__("absent", [doc[key][i][:3]])


def _both(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)
    return mutate


def _header_rows(keys):
    """One row per header check of a document, or of the document under
    ``keys``: format version, cutoff, completeness, weights and metadata."""
    path = "".join(f".{k}" for k in ("$", *keys))[1:]
    return [
        (f"{path} format_version", _set(*keys, "format_version", 7),
         "unsupported format_version 7", f"{path}.format_version"),
        (f"{path} malformed cutoff", _set(*keys, "cutoff", "x"),
         "not a rational scalar: 'x'", f"{path}.cutoff"),
        (f"{path} complete not a bool", _set(*keys, "complete", 1),
         "complete must be a boolean", f"{path}.complete"),
        (f"{path} weights not a list", _set(*keys, "weights", {}),
         "expected a list of [weight, labels] pairs", f"{path}.weights"),
        (f"{path} metadata not an object", _set(*keys, "metadata", [1]),
         "metadata must be an object", f"{path}.metadata"),
    ]


# One row per check of _parse_vec and _parse_vertex: the mutation, the exact
# message and the exact path.  Recorded before the loader raised inline, so
# the inline checks must say and locate every failure as the _expect calls did.
LOADER_ROWS = [
    ("vertex not a list", _set("vertex", {}), "expected a list of entries", "$.vertex"),
    ("entry arity", _set("vertex", 1, ["E11", -1, "E12"]),
     "expected [first, mode, second, vector]", "$.vertex[1]"),
    ("entry not a list", _set("vertex", 1, "E11"),
     "expected [first, mode, second, vector]", "$.vertex[1]"),
    ("first label not a string", _set("vertex", 1, 0, 7),
     "unknown first label 7", "$.vertex[1]"),
    ("unknown first label", _set("vertex", 1, 0, "E99"),
     "unknown first label 'E99'", "$.vertex[1]"),
    ("string mode", _set("vertex", 1, 1, "-1"), "mode must be an integer", "$.vertex[1]"),
    ("float mode", _set("vertex", 1, 1, -1.0), "mode must be an integer", "$.vertex[1]"),
    ("second label not a string", _set("vertex", 1, 2, None),
     "unknown second label None", "$.vertex[1]"),
    ("unknown second label", _set("vertex", 1, 2, "E99"),
     "unknown second label 'E99'", "$.vertex[1]"),
    ("duplicate entry", _append_copy("vertex", 0), "duplicate entry", "$.vertex[8]"),
    ("vector not a list", _set("vertex", 1, 3, "E12"),
     "expected a list of [label, scalar] pairs", "$.vertex[1]"),
    ("pair arity", _set("vertex", 1, 3, [["E12"]]),
     "expected [label, scalar]", "$.vertex[1][0]"),
    ("pair not a list", _set("vertex", 1, 3, ["E12", "1"]),
     "expected [label, scalar]", "$.vertex[1][0]"),
    ("vector label not a string", _set("vertex", 1, 3, [["E12", "1"], [3, "1"]]),
     "label must be a string", "$.vertex[1][1]"),
    ("unknown vector label", _set("vertex", 1, 3, [["E99", "1"]]),
     "unknown label 'E99'", "$.vertex[1][0]"),
    ("malformed scalar", _set("vertex", 1, 3, [["E12", "1/x"]]),
     "not a rational scalar: '1/x'", "$.vertex[1][0]"),
    ("zero denominator", _set("vertex", 1, 3, [["E12", "1/0"]]),
     "zero denominator in scalar: '1/0'", "$.vertex[1][0]"),
    ("scalar not a string", _set("vertex", 1, 3, [["E12", 1]]),
     "scalar must be a string, got int", "$.vertex[1][0]"),
    ("vacuum not a list", _set("vacuum", None),
     "expected a list of [label, scalar] pairs", "$.vacuum"),
    ("unknown vacuum label", _set("vacuum", 1, ["E99", "1"]),
     "unknown label 'E99'", "$.vacuum[1]"),
    ("operator vector label", _set("operators", "D", "E12", [["E11", "1"], ["E12", "x"]]),
     "not a rational scalar: 'x'", "$.operators.D.E12[1]"),
    ("absent arity", _set("absent", [["E11", 0, "E12"], ["E11", 0]]),
     "expected [first, mode, second]", "$.vertex-absent[1]"),
    ("absent not a list", _set("absent", ["E11"]),
     "expected [first, mode, second]", "$.vertex-absent[0]"),
    ("stored and absent", _absent_of("vertex", 5),
     "a key cannot be both stored and absent", "$.vertex"),
    ("algebra N0", _set("operators", "N0", {"E11": [["E12", "1"]]}),
     "an algebra has no N0; its L(0) is its grading", "$.operators.N0"),
    ("algebra N0 malformed", _set("operators", "N0", "garbage"),
     "an algebra has no N0; its L(0) is its grading", "$.operators.N0"),
    *_header_rows(()),
]

MODULE_ROWS = [
    ("left first label is an algebra label", _set("vertex_left", 0, 0, "E99"),
     "unknown first label 'E99'", "$.vertex_left[0]"),
    ("right second label", _set("vertex_right", 2, 2, "E99"),
     "unknown second label 'E99'", "$.vertex_right[2]"),
    ("right vector label", _set("vertex_right", 2, 3, [["E99", "1"]]),
     "unknown label 'E99'", "$.vertex_right[2][0]"),
    ("left absent arity", _set("absent_left", [[]]),
     "expected [first, mode, second]", "$.vertex_left-absent[0]"),
    ("nested algebra entry", _set("algebra", "vertex", 0, 1, "0"),
     "mode must be an integer", "$.algebra.vertex[0]"),
    *_header_rows(()),
    *_header_rows(("algebra",)),
    # of two faults, the one met first in reading order is reported
    ("format_version before the algebra",
     _both(_set("algebra", "format_version", 7), _set("format_version", 7)),
     "unsupported format_version 7", "$.format_version"),
    ("algebra metadata before the cutoff",
     _both(_set("algebra", "metadata", [1]), _set("cutoff", "x")),
     "metadata must be an object", "$.algebra.metadata"),
    ("cutoff before the metadata", _both(_set("cutoff", "x"), _set("metadata", [1])),
     "not a rational scalar: 'x'", "$.cutoff"),
]


def _raised(doc):
    with pytest.raises(SchemaError) as err:
        from_document(doc)
    return str(err.value), err.value.path


@pytest.mark.parametrize("name, mutate, message, path", LOADER_ROWS,
                         ids=[r[0] for r in LOADER_ROWS])
def test_loader_rejects_with_message_and_path(name, mutate, message, path):
    doc = to_document(matrix_units_mosva(2))
    mutate(doc)
    assert _raised(doc) == (f"{path}: {message}", path)


@pytest.mark.parametrize("name, mutate, message, path", MODULE_ROWS,
                         ids=[r[0] for r in MODULE_ROWS])
def test_module_loader_rejects_with_message_and_path(name, mutate, message, path):
    doc = _module_doc()
    mutate(doc)
    assert _raised(doc) == (f"{path}: {message}", path)


# -- absent lists and modes are checked like stored entries --------------------


@pytest.mark.parametrize("absent, message", [
    ([["E11", 1.5, "E12"]], "mode must be an integer"),
    ([["E11", "7", "E12"]], "mode must be an integer"),
    ([["E11", True, "E12"]], "mode must be an integer"),
    ([["bogus", 7, "E12"]], "unknown first label 'bogus'"),
    ([["E11", 7, "E99"]], "unknown second label 'E99'"),
    ([["E11", 7, 12]], "unknown second label 12"),
    ([["E11", 7, "E12"], ["E11", 7, "E12", "E21"]], "expected [first, mode, second]"),
])
def test_absent_keys_are_checked_like_stored_keys(absent, message):
    doc = to_document(matrix_units_mosva(2))
    doc["absent"] = absent
    path = f"$.vertex-absent[{len(absent) - 1}]"
    assert _raised(doc) == (f"{path}: {message}", path)


def test_well_formed_absent_keys_load_as_given():
    doc = to_document(matrix_units_mosva(2))
    doc["absent"] = [["E11", 7, "E12"], ["E22", -3, "E21"], ["E11", 7, "E12"]]
    inst = from_document(doc)
    assert inst.Y.absent == frozenset({("E11", 7, "E12"), ("E22", -3, "E21")})
    assert all(type(n) is int for _, n, _ in inst.Y.absent)


def test_absent_list_must_be_a_list_and_needs_a_table():
    doc = to_document(matrix_units_mosva(2))
    doc["absent"] = {"E11": 1}
    assert _raised(doc) == ("$.vertex-absent: expected a list of [first, mode, "
                            "second] keys", "$.vertex-absent")
    doc = to_document(self_module(matrix_units_mosva(2), "left"))
    doc["absent_right"] = [["E11", 0, "E12"]]
    assert _raised(doc) == ("$.vertex_right-absent: absent keys without a vertex "
                            "table", "$.vertex_right-absent")


def test_stored_and_absent_key_is_rejected_in_a_module():
    doc = _module_doc()
    doc["absent_right"] = [doc["vertex_right"][3][:3]]
    assert _raised(doc) == ("$.vertex_right: a key cannot be both stored and absent",
                            "$.vertex_right")


def test_boolean_mode_is_not_an_integer():
    # True == 1 and isinstance(True, int); stored, it would be written back
    # as true
    alg, _ = build_heisenberg(level=1, cutoff=3)
    doc = to_document(alg)
    i = next(i for i, rec in enumerate(doc["vertex"]) if rec[1] == 1)
    doc["vertex"][i][1] = True
    assert _raised(doc) == (f"$.vertex[{i}]: mode must be an integer", f"$.vertex[{i}]")
    doc = _module_doc()
    doc["vertex_left"][0][1] = False
    assert _raised(doc) == ("$.vertex_left[0]: mode must be an integer",
                            "$.vertex_left[0]")


# -- the writer is json.dumps(indent=1) byte for byte ---------------------------


_json_leaves = (st.text(alphabet=st.characters(codec="utf-8"), max_size=8)
                | st.sampled_from(["", "\"", "\\", "\n\t\r\x00\x1f", "é 😀", "a/b"])
                | st.integers(min_value=-10**40, max_value=10**40)
                | st.booleans() | st.none()
                | st.floats(allow_nan=True, allow_infinity=True))
_json_keys = (st.text(max_size=6) | st.integers(-5, 5) | st.booleans() | st.none()
              | st.floats(allow_nan=False, width=16))


def _json_trees(leaves):
    return st.recursive(
        leaves,
        lambda kids: (st.lists(kids, max_size=4)
                      | st.lists(kids, max_size=3).map(tuple)
                      | st.tuples(st.text(max_size=4), st.text(max_size=4)).map(list)
                      | st.dictionaries(st.text(max_size=6), kids, max_size=4)
                      | st.dictionaries(_json_keys, kids, max_size=3)),
        max_leaves=20)


@settings(max_examples=120, deadline=None)
@given(_json_trees(_json_leaves), st.integers(1, 3))
def test_emit_writes_what_json_dumps_writes(tree, indent):
    assert _emit(tree, "\n", " " * indent) == json.dumps(tree, indent=indent)


def test_emit_nests_foreign_nodes_at_their_depth():
    tree = {"a": [[1.5, (2, [3.25])], {"b": {1: [None, 0.5]}, "c": []}], "d": {}}
    for indent in (1, 2):
        assert _emit(tree, "\n", " " * indent) == json.dumps(tree, indent=indent)


@pytest.mark.parametrize("level", [None, "1", "3/2", "-2", "1/3"])
def test_serialize_is_json_dumps_indent_one(level):
    # None: the round-trip instances above; a level: the Fock module at
    # cutoff 5, its algebra, the opposite, both transports and the
    # contragredient, for each of the benchmark's boson levels
    from mosva.constructions import transport_module

    if level is None:
        instances = constructed_instances()
    else:
        alg, fock = build_heisenberg(level=level, cutoff=5)
        there = transport_module(fock, "left_to_right_op")
        instances = [alg, fock, opposite_mosva(alg).result, there,
                     transport_module(there, "right_op_to_left"),
                     contragredient_module(fock)]
    for inst in instances:
        assert serialize(inst) == json.dumps(to_document(inst), indent=1) + "\n"


# -- a module file that repeats its algebra's table loads as a self-module -----


def _saved_and_loaded(inst, tmp_path):
    path = tmp_path / "inst.mosva"
    save(inst, path)
    return load(path)


def _shares_the_table(vmap, alg):
    return (vmap.entries is alg.Y.entries and vmap.absent is alg.Y.absent
            and vmap.cleared() is alg.Y.cleared())


@pytest.mark.parametrize("side", [LEFT, RIGHT])
def test_self_module_file_loads_as_a_self_module(tmp_path, side):
    alg, _ = build_heisenberg(level="3/2", cutoff=4)
    W = _saved_and_loaded(self_module(alg, side), tmp_path)
    A = W.algebra
    assert W.space is A.space and W.D is A.D and W.L1 is A.L1
    assert _shares_the_table(W.YL if side == LEFT else W.YR, A)
    assert same_module(W, self_module(alg, side))


def test_bi_self_module_file_shares_both_tables(tmp_path):
    m = matrix_units_mosva(2)
    W = _saved_and_loaded(self_module(m, BI), tmp_path)
    A = W.algebra
    assert W.space is A.space and W.D is A.D and W.L1 is A.L1
    assert _shares_the_table(W.YL, A) and _shares_the_table(W.YR, A)
    assert W.YL.kind == LEFT and W.YR.kind == RIGHT
    assert same_module(W, self_module(m, BI))


def test_a_faulty_self_module_file_is_parsed_and_caught(tmp_path):
    from mosva.checks import run_suite

    alg, fock = build_heisenberg(level="3/2", cutoff=4)
    bad = with_scaled_entry(fock, ("a1", 1, "a1"), 2)
    W = _saved_and_loaded(bad, tmp_path)
    assert W.YL.entries is not W.algebra.Y.entries
    assert same_module(W, bad)
    rep = run_suite(W, "all", max_weight=3)
    assert not rep.passed
    assert run_suite(_saved_and_loaded(fock, tmp_path), "all", max_weight=3).passed


def test_a_module_file_with_its_own_absent_list_is_parsed():
    alg, fock = build_heisenberg(level="3/2", cutoff=4)
    doc = to_document(fock)
    key = ["a1", 7, "a1"]
    doc["absent_left"] = [key]
    W = from_document(doc)
    assert W.YL.entries is not W.algebra.Y.entries
    assert W.YL.entries == W.algebra.Y.entries
    assert W.YL.absent == {tuple(key)} and not W.algebra.Y.absent


def test_a_module_file_with_its_own_d_is_parsed():
    from mosva.constructions import transport_module
    from mosva.vertex import ModuleInstance, VertexMap

    alg, fock = build_heisenberg(level="3/2", cutoff=4)
    doc = to_document(fock)
    row = doc["operators"]["D"]["a1"]
    assert row == [["a2", "1"]]
    row[0][1] = "2"
    W = from_document(doc)
    A = W.algebra
    assert W.D is not A.D and W.D != A.D and W.L1 is A.L1
    # the table is still the algebra's, but its skews under the two Ds are
    # kept apart: the transport equals the one made on an unshared copy
    assert _shares_the_table(W.YL, A)
    copy = ModuleInstance(LEFT, A.space, A, D=W.D, L1=W.L1, meta=W.meta,
                          YL=VertexMap(LEFT, A.space, A.space, A.space,
                                       dict(W.YL.entries), W.YL.absent))
    there = transport_module(W, "left_to_right_op")
    assert serialize(there) == serialize(transport_module(copy, "left_to_right_op"))
    assert there.YR != there.algebra.Y.with_kind(RIGHT)
    assert there.algebra.Y == opposite_mosva(alg).result.Y


@pytest.mark.parametrize("mode", [True, 1.0])
def test_a_repeated_table_with_a_mode_that_only_equals_an_int_is_rejected(mode):
    # true == 1 and 1.0 == 1 in Python, so JSON equality with the algebra's
    # table is not enough to take it
    doc = to_document(build_heisenberg(level=1, cutoff=3)[1])
    i = next(i for i, rec in enumerate(doc["vertex_left"]) if rec[1] == 1)
    doc["vertex_left"][i][1] = mode
    assert doc["vertex_left"] == doc["algebra"]["vertex"]
    assert _raised(doc) == (f"$.vertex_left[{i}]: mode must be an integer",
                            f"$.vertex_left[{i}]")
