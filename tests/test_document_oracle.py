"""The one-walk table loader and the flat table emitter of mosva.document
against the nested-list reader and writer they replaced
(tests/oracle_document.py): the same bytes, the same loaded entries in the
same order, and the same errors."""

import functools
import json
import random

import pytest

from oracle_document import oracle_from_document, serialize as oracle_serialize
from test_document import LOADER_ROWS, MODULE_ROWS, _module_doc

from mosva.constructions import contragredient_module, opposite_mosva, transport_module
from mosva.document import from_document, serialize, to_document
from mosva.errors import SchemaError
from mosva.factory import build_heisenberg, matrix_units_mosva, self_module
from mosva.vertex import ALGEBRA, AlgebraInstance, VertexMap

SIDES = ("left", "right", "bi")
LEVELS = ("1", "3/2", "-2", "1/3")


def _absent_matrix():
    """matrix_units_mosva(2) with one in-window key explicitly unknown."""
    m = matrix_units_mosva(2)
    Y = VertexMap(ALGEBRA, m.space, m.space, m.space, m.Y.entries,
                  absent=[("E12", -1, "E12")])
    return AlgebraInstance(m.space, Y, m.vacuum, m.D, m.L1)


@functools.cache
def example_instances():
    """What ``mosva example`` writes at its defaults, with every self-module,
    and the absent-entry matrix fixture with its self-modules."""
    out = []
    for alg in (matrix_units_mosva(2), build_heisenberg(level=1, cutoff=6)[0],
                _absent_matrix()):
        out.append(alg)
        out.extend(self_module(alg, side) for side in SIDES)
    return out


def construction_instances(level):
    """The roundtrip workload's constructions at one boson level, cutoff 5."""
    alg, fock = build_heisenberg(level=level, cutoff=5)
    there = transport_module(fock, "left_to_right_op")
    return [alg, fock, opposite_mosva(alg).result, there,
            transport_module(there, "right_op_to_left"), contragredient_module(fock)]


def _maps(inst):
    if isinstance(inst, AlgebraInstance):
        return [inst.Y]
    return [inst.YL, inst.YR, inst.algebra.Y]


def loaded_view(inst):
    """Everything the loaded tables hold, flat and in order: each table's
    kind and absences, and per entry its key, the labels of its vector in
    order with their scalar types, and whether the vector lives in the
    table's output space object."""
    view = []
    for t, vmap in enumerate(_maps(inst)):
        if vmap is None:
            view.append((t, None))
            continue
        view.append((t, vmap.kind, sorted(vmap.absent)))
        view.extend((t, key, [(lbl, type(c), c) for lbl, c in out.entries.items()],
                     out.space is vmap.out_space)
                    for key, out in vmap.entries.items())
    return view


def _outcome(reader, doc):
    try:
        inst = reader(doc)
    except SchemaError as e:
        return ["error", str(e), e.path]
    return ["loaded", *loaded_view(inst), serialize(inst)]


def same(new, old, what):
    """Fail with the first difference of two sequences, not a diff of the
    whole of two large documents."""
    if new == old:
        return
    i = next((i for i, (x, y) in enumerate(zip(new, old)) if x != y),
             min(len(new), len(old)))
    n = 80 if isinstance(new, str) else 1
    pytest.fail(f"{what} differ at {i}: {new[i:i + n]!r} != {old[i:i + n]!r}",
                pytrace=False)


def _assert_same_io(inst):
    text = serialize(inst)
    same(text, oracle_serialize(inst), "bytes")
    new = from_document(json.loads(text))
    old = oracle_from_document(json.loads(text))
    same(loaded_view(new), loaded_view(old), "loaded entries")
    same(serialize(new), text, "bytes written back")


@pytest.mark.parametrize("i", range(12))
def test_example_instances_match_the_oracle(i):
    _assert_same_io(example_instances()[i])


@pytest.mark.parametrize("level", LEVELS)
def test_roundtrip_constructions_match_the_oracle(level):
    for inst in construction_instances(level):
        _assert_same_io(inst)


def test_rejected_documents_fail_alike():
    # every malformed document that test_document pins, under both readers
    for rows, make in ((LOADER_ROWS, lambda: to_document(matrix_units_mosva(2))),
                       (MODULE_ROWS, _module_doc)):
        for name, mutate, _, _ in rows:
            doc = make()
            mutate(doc)
            new = _outcome(from_document, doc)
            same(new, _outcome(oracle_from_document, doc), name)
            assert new[0] == "error", name


# -- a seeded mutation sweep over stored entries --------------------------------


def _key_label(rng, entry):
    entry[rng.choice((0, 2))] = rng.choice(("E99", "zz", 7, None, ["a1"]))


def _mode(rng, entry):
    # a shifted int mode may repeat a stored key, land on an absent one or
    # make a new key
    entry[1] = rng.choice((True, False, 1.0, -1.0, "1", "-1", None,
                           entry[1] - 1, entry[1] + 1))


def _pair(rng, entry):
    pairs = entry[3]
    if pairs:
        return pairs[rng.randrange(len(pairs))]
    pairs.append(["vac", "1"])
    return pairs[0]


def _vec_label(rng, entry):
    _pair(rng, entry)[0] = rng.choice(("E99", "zz", 3, None, ["a1"], ""))


def _scalar(rng, entry):
    _pair(rng, entry)[1] = rng.choice(
        ("1/x", "1/0", "1.5", " 1", "", "0", "-0", "0/7", "00", "7", "-12/5",
         "003/6", 1, 0, None, ["1"], 1.5))


def _arity(rng, entry):
    pair = _pair(rng, entry)
    if rng.random() < 0.5:
        del pair[1:]
    else:
        pair.append("1")


def _shape(rng, entry):
    choice = rng.randrange(4)
    if choice == 0:
        entry[3] = tuple(entry[3])
    elif choice == 1:
        entry[3] = {"vac": "1"}
    elif choice == 2:
        entry[3] = [tuple(p) for p in entry[3]] or [("vac", "1")]
    else:
        entry[3] = "vac"


def _repeat(rng, entry):
    pairs = entry[3]
    if pairs:
        lbl = pairs[rng.randrange(len(pairs))][0]
        pairs.insert(rng.randrange(len(pairs) + 1),
                     [lbl, rng.choice(("2", "-1/3", "0", "bad"))])


MUTATIONS = [_key_label, _mode, _vec_label, _scalar, _arity, _shape, _repeat]


def _tables(doc):
    """(holder, key) of every vertex table in a document."""
    if doc["kind"] == "algebra":
        return [(doc, "vertex")]
    found = [(doc, k) for k in ("vertex_left", "vertex_right") if doc[k] is not None]
    return found + [(doc["algebra"], "vertex")]


def _sweep_documents():
    alg, fock = build_heisenberg(level="3/2", cutoff=4)
    return [json.loads(serialize(inst)) for inst in
            (alg, fock, self_module(matrix_units_mosva(2), "bi"), _absent_matrix())]


def _mutated(doc, reader, places, mutate, seed):
    """The reader's outcome on doc with each (table, index) in places
    mutated alike; doc is restored afterwards.  Two places with one seed
    make a text that the first entry adds to the memo and the second reads
    from it."""
    saved = []
    for table, i in places:
        entry = json.loads(json.dumps(table[i]))
        mutate(random.Random(seed), entry)
        saved.append((table, i, table[i]))
        table[i] = entry
    try:
        return _outcome(reader, doc)
    finally:
        for table, i, entry in reversed(saved):
            table[i] = entry


@pytest.mark.parametrize("seed", range(4))
def test_mutated_entries_load_or_fail_alike(seed):
    rng = random.Random(seed)
    outcomes = set()
    for doc in _sweep_documents():
        tables = _tables(doc)
        for _ in range(14):
            holder, key = rng.choice(tables)
            table = holder[key]
            places = [(table, i) for i in sorted(rng.sample(range(len(table)),
                                                            rng.choice((1, 2))))]
            mutate, mseed = rng.choice(MUTATIONS), rng.random()
            new = _mutated(doc, from_document, places, mutate, mseed)
            old = _mutated(doc, oracle_from_document, places, mutate, mseed)
            same(new, old, f"{mutate.__name__}({mseed}) at {key} "
                           f"{[i for _, i in places]}: outcomes")
            outcomes.add(new[0])
    assert outcomes == {"error", "loaded"}


def test_every_mutation_kind_meets_both_readers():
    # each kind at one and at two entries of the matrix bi-module, so every
    # branch of the inline walk hands off to the check that describes it
    doc = _sweep_documents()[2]
    table = doc["vertex_left"]
    for mutate in MUTATIONS:
        for seed in range(8):
            for places in ([(table, 3)], [(table, 3), (table, 5)]):
                same(_mutated(doc, from_document, places, mutate, seed),
                     _mutated(doc, oracle_from_document, places, mutate, seed),
                     f"{mutate.__name__}, seed {seed}, {len(places)} entries: outcomes")
