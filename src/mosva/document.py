"""Lossless JSON documents for algebra and module instances.

Scalars travel as decimal-free "p/q" strings, weights likewise; the grading
operator is implicit in the weights.  Field and entry order is canonical, so
serialization is byte-stable.  Parsing is strict: unknown fields and
malformed scalars are rejected with the offending path; semantic problems
(like an inhomogeneous vertex entry) are left for validate_instance.

Vertex tables, the bulk of a file, take one pass each way.  The loader reads
each table in one walk, taking a well-formed vector inline and handing any
other to _parse_vec, the one place that describes a vector's errors.  The
writer renders each table as text in one flat walk over its sorted entries
(_Table), with the same bytes as the nested lists of to_document.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import SchemaError
from .graded import GradedOp, GradedSpace, Vec
from .report import Chunk, _emit
from .scalars import format_scalar, parse_scalar
from .vertex import (ALGEBRA, BI, LEFT, RIGHT, AlgebraInstance, ModuleInstance,
                     VertexMap, _key_problem)

FORMAT_VERSION = 1

_ALGEBRA_KEYS = {"format_version", "kind", "metadata", "cutoff", "complete",
                 "weights", "vacuum", "operators", "vertex", "absent"}
_MODULE_KEYS = {"format_version", "kind", "side", "metadata", "algebra",
                "cutoff", "complete", "weights", "operators",
                "vertex_left", "vertex_right", "absent_left", "absent_right"}
_OPERATOR_KEYS = {"D", "L1", "N0"}


def _vec_doc(v: Vec):
    # entries are nonzero Fractions or ints, whose str is already ``p`` or ``p/q``
    return [[lbl, str(c)] for lbl, c in sorted(v.entries.items())]


def _op_doc(op: GradedOp | None):
    if op is None:
        return None
    return {lbl: _vec_doc(vec) for lbl, vec in sorted(op.action.items())}


def _space_doc(space: GradedSpace):
    return [[format_scalar(w), list(labels)] for w, labels in space.components.items()]


def _vertex_doc(vmap: VertexMap | None):
    if vmap is None:
        return None
    return [[f, n, s, _vec_doc(out)] for (f, n, s), out in sorted(vmap.entries.items())]


def _absent_doc(vmap: VertexMap | None):
    if vmap is None:
        return []
    return [[f, n, s] for f, n, s in sorted(vmap.absent)]


def _meta_doc(meta: dict):
    return {k: (format_scalar(v) if isinstance(v, Fraction) else v)
            for k, v in sorted(meta.items())}


def to_document(inst) -> dict:
    return _document(inst, _vertex_doc)


def _document(inst, vertex) -> dict:
    """The one statement of the field layout; ``vertex`` gives the node of
    each vertex table."""
    if isinstance(inst, AlgebraInstance):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "algebra",
            "metadata": _meta_doc(inst.meta),
            "cutoff": format_scalar(inst.cutoff),
            "complete": inst.space.complete,
            "weights": _space_doc(inst.space),
            "vacuum": _vec_doc(inst.vacuum),
            "operators": {"D": _op_doc(inst.D), "L1": _op_doc(inst.L1),
                          "N0": None},
            "vertex": vertex(inst.Y),
            "absent": _absent_doc(inst.Y),
        }
    if isinstance(inst, ModuleInstance):
        return {
            "format_version": FORMAT_VERSION,
            "kind": "module",
            "side": inst.side,
            "metadata": _meta_doc(inst.meta),
            "algebra": _document(inst.algebra, vertex),
            "cutoff": format_scalar(inst.cutoff),
            "complete": inst.space.complete,
            "weights": _space_doc(inst.space),
            "operators": {"D": _op_doc(inst.D), "L1": _op_doc(inst.L1),
                          "N0": _op_doc(inst.N0)},
            "vertex_left": vertex(inst.YL),
            "vertex_right": vertex(inst.YR),
            "absent_left": _absent_doc(inst.YL),
            "absent_right": _absent_doc(inst.YR),
        }
    raise TypeError(f"cannot serialize {type(inst).__name__}")


def _table_text(vmap: VertexMap, nl) -> str:
    """``_emit(_vertex_doc(vmap), nl)``: the entries sorted by key and each
    vector's pairs sorted by label, as the nested lists are."""
    if not vmap.entries:
        return "[]"
    i1 = nl + " "
    i2, i3, i4 = i1 + " ", i1 + "  ", i1 + "   "
    between = "," + i3
    quoted = {lbl: _quote(lbl) for space in (vmap.first_space, vmap.second_space,
                                             vmap.out_space)
              for lbl in space.labels()}
    parts = []
    add = parts.append
    lead = "[" + i1
    for (f, n, s), out in sorted(vmap.entries.items()):
        add(f"{lead}[{i2}{quoted[f]},{i2}{n},{i2}{quoted[s]},{i2}")
        lead = "," + i1
        pairs = out.entries.items()
        if not pairs:
            add(f"[]{i1}]")
            continue
        if len(pairs) > 1:
            pairs = sorted(pairs)
        sep = "[" + i3
        for lbl, c in pairs:
            add(f'{sep}[{i4}{quoted[lbl]},{i4}"{c!s}"{i3}]')
            sep = between
        add(f"{i2}]{i1}]")
    add(nl + "]")
    return "".join(parts)


class _Table(Chunk):
    """A vertex table that _emit writes in one flat walk, at its depth.  Its
    text depends on its entries alone: ``kept`` holds it per entries dict, to
    re-indent for the next use (_quote escapes line breaks in labels)."""

    __slots__ = ("vmap", "kept")

    def __init__(self, vmap: VertexMap | None, kept: dict):
        self.vmap = vmap
        self.kept = kept

    def text(self, nl) -> str:
        if self.vmap is None:
            return "null"
        key = id(self.vmap.entries)
        if key not in self.kept:
            self.kept[key] = (nl, _table_text(self.vmap, nl))
        kept_nl, text = self.kept[key]
        return text if kept_nl == nl else text.replace(kept_nl, nl)


def serialize(inst) -> str:
    """``json.dumps(to_document(inst), indent=1)`` and a final newline, byte
    for byte, without the pure-Python encoder that ``indent`` selects.  The
    vertex tables are written by _Table, each distinct one once."""
    kept: dict = {}
    return _emit(_document(inst, lambda vmap: _Table(vmap, kept)), "\n") + "\n"


# -- parsing -----------------------------------------------------------------


def _expect(cond, message, path):
    if not cond:
        raise SchemaError(message, path)


def _parse_scalar_at(text, path) -> Fraction:
    try:
        return parse_scalar(text)
    except (ValueError, TypeError) as e:
        raise SchemaError(str(e), path) from None


def _parse_vec(doc, space, path, scalars: dict) -> Vec:
    """Every label is checked against the space and every scalar parsed, so
    the Vec is built without a second check; zero coefficients are dropped
    as the Vec constructor drops them.  ``scalars`` maps each scalar text
    already parsed in this document to its Fraction; a malformed text is
    never stored, so each occurrence raises at its own path."""
    if not isinstance(doc, list):
        raise SchemaError("expected a list of [label, scalar] pairs", path)
    known = space.label_weights
    entries = {}
    zeros = False
    for i, item in enumerate(doc):
        if not (isinstance(item, list) and len(item) == 2):
            raise SchemaError("expected [label, scalar]", f"{path}[{i}]")
        lbl, sc = item
        if not isinstance(lbl, str):
            raise SchemaError("label must be a string", f"{path}[{i}]")
        if lbl not in known:
            raise SchemaError(f"unknown label {lbl!r}", f"{path}[{i}]")
        c = scalars.get(sc) if type(sc) is str else None
        if c is None:
            # a malformed or non-string text raises before it is stored
            c = scalars[sc] = _parse_scalar_at(sc, f"{path}[{i}]")
        entries[lbl] = c
        zeros = zeros or not c
    if zeros:
        # dropping zeros, a repeated label keeps its first place and last value
        entries = {l: c for l, c in entries.items() if c}
    return Vec._wrap(space, entries)


def _parse_space(doc, cutoff, complete, path) -> GradedSpace:
    _expect(isinstance(doc, list), "expected a list of [weight, labels] pairs", path)
    comps = {}
    for i, item in enumerate(doc):
        _expect(isinstance(item, list) and len(item) == 2,
                "expected [weight, labels]", f"{path}[{i}]")
        w, labels = item
        wt = _parse_scalar_at(w, f"{path}[{i}]")
        _expect(isinstance(labels, list) and all(isinstance(l, str) for l in labels),
                "labels must be strings", f"{path}[{i}]")
        _expect(wt not in comps, f"duplicate weight {w}", f"{path}[{i}]")
        comps[wt] = labels
    try:
        return GradedSpace(comps, cutoff, complete)
    except ValueError as e:
        raise SchemaError(str(e), path) from None


def _parse_op(doc, space, shift, path, scalars) -> GradedOp | None:
    if doc is None:
        return None
    _expect(isinstance(doc, dict), "expected a label -> vector table", path)
    action = {}
    for lbl, vec_doc in doc.items():
        _expect(lbl in space.label_weights, f"unknown label {lbl!r}", f"{path}.{lbl}")
        action[lbl] = _parse_vec(vec_doc, space, f"{path}.{lbl}", scalars)
    try:
        return GradedOp(space, shift, action)
    except ValueError as e:
        raise SchemaError(str(e), path) from None


def _parse_vertex(doc, kind, first_space, second_space, out_space, absent_doc, path,
                  scalars):
    """Each entry and each absent key is checked once here, so the map is
    built without a second check.  The table is read in one walk: a key of
    two known string labels and an int mode, and a vector of [label, text]
    pairs whose labels are known and whose texts this document has already
    parsed to nonzero scalars, are taken inline.  Anything else is handed to
    _key_problem or _parse_vec, which raise or decide as for any vector."""
    if doc is None:
        if absent_doc:
            raise SchemaError("absent keys without a vertex table", f"{path}-absent")
        return None
    if not isinstance(doc, list):
        raise SchemaError("expected a list of entries", path)
    firsts, seconds = first_space.label_weights, second_space.label_weights
    known, wrap = out_space.label_weights, Vec._wrap
    entries = {}
    for i, item in enumerate(doc):
        if not (isinstance(item, list) and len(item) == 4):
            raise SchemaError("expected [first, mode, second, vector]", f"{path}[{i}]")
        f, n, s, out = item
        key = (f, n, s)
        if not (type(f) is str and f in firsts and type(n) is int
                and type(s) is str and s in seconds) or key in entries:
            problem = _key_problem(f, n, s, firsts, seconds)
            if problem is None and key in entries:
                problem = "duplicate entry"
            if problem is not None:
                raise SchemaError(problem, f"{path}[{i}]")
        if type(out) is list:
            vec = {}
            try:
                for pair in out:
                    if type(pair) is not list:
                        break
                    lbl, sc = pair
                    # a memo miss is a new or malformed text; only a str
                    # equals a label or a memo key
                    c = scalars.get(sc)
                    if c is None or not c or lbl not in known:
                        break
                    vec[lbl] = c
                else:
                    entries[key] = wrap(out_space, vec)
                    continue
            except (TypeError, ValueError):
                # an unhashable label or text, or a pair of another length
                pass
        entries[key] = _parse_vec(out, out_space, f"{path}[{i}]", scalars)
    if absent_doc is None:
        absent_doc = []
    if not isinstance(absent_doc, list):
        raise SchemaError("expected a list of [first, mode, second] keys", f"{path}-absent")
    absent = set()
    for i, item in enumerate(absent_doc):
        if not (isinstance(item, list) and len(item) == 3):
            problem = "expected [first, mode, second]"
        else:
            problem = _key_problem(*item, firsts, seconds)
        if problem is not None:
            raise SchemaError(problem, f"{path}-absent[{i}]")
        absent.add(tuple(item))
    if not absent.isdisjoint(entries):
        raise SchemaError("a key cannot be both stored and absent", path)
    return VertexMap._wrap(kind, first_space, second_space, out_space, entries,
                           frozenset(absent))


def _check_keys(doc, allowed, path):
    _expect(isinstance(doc, dict), "expected an object", path)
    for key in doc:
        _expect(key in allowed, f"unknown field {key!r}", path)


def _check_format_version(doc, path):
    _expect(doc.get("format_version") == FORMAT_VERSION,
            f"unsupported format_version {doc.get('format_version')!r}",
            f"{path}.format_version")


def _parse_header_space(doc, path) -> GradedSpace:
    """The space a document's cutoff, complete and weights fields give."""
    cutoff = _parse_scalar_at(doc.get("cutoff"), f"{path}.cutoff")
    complete = doc.get("complete", False)
    _expect(isinstance(complete, bool), "complete must be a boolean",
            f"{path}.complete")
    return _parse_space(doc.get("weights"), cutoff, complete, f"{path}.weights")


def _parse_metadata(doc, path) -> dict:
    meta = doc.get("metadata") or {}
    _expect(isinstance(meta, dict), "metadata must be an object", f"{path}.metadata")
    return meta


def _parse_algebra(doc, path, scalars) -> AlgebraInstance:
    _check_keys(doc, _ALGEBRA_KEYS, path)
    _check_format_version(doc, path)
    _expect(doc.get("kind") == "algebra", "expected kind 'algebra'", f"{path}.kind")
    space = _parse_header_space(doc, path)
    vacuum = _parse_vec(doc.get("vacuum"), space, f"{path}.vacuum", scalars)
    ops = doc.get("operators")
    _check_keys(ops, _OPERATOR_KEYS, f"{path}.operators")
    D = _parse_op(ops.get("D"), space, 1, f"{path}.operators.D", scalars)
    _expect(D is not None, "algebra needs the shift operator D", f"{path}.operators.D")
    L1 = _parse_op(ops.get("L1"), space, -1, f"{path}.operators.L1", scalars)
    _expect(ops.get("N0") is None, "an algebra has no N0; its L(0) is its grading",
            f"{path}.operators.N0")
    Y = _parse_vertex(doc.get("vertex"), ALGEBRA, space, space, space,
                      doc.get("absent"), f"{path}.vertex", scalars)
    _expect(Y is not None, "algebra needs a vertex table", f"{path}.vertex")
    meta = _parse_metadata(doc, path)
    return AlgebraInstance(space, Y, vacuum, D, L1, meta=meta)


def _repeats(node, alg_node) -> bool:
    """Whether a module's vertex or absent node repeats the algebra's, which
    has parsed.  JSON values compare equal in Python where true or 1.0
    stands for 1, so each key's mode must also be an int, as the algebra's
    are."""
    return node == alg_node and all(type(key[1]) is int for key in node or ())


def _parse_module(doc, path, scalars) -> ModuleInstance:
    _check_keys(doc, _MODULE_KEYS, path)
    _check_format_version(doc, path)
    side = doc.get("side")
    _expect(side in (LEFT, RIGHT, BI), f"unknown side {side!r}", f"{path}.side")
    alg_doc = doc.get("algebra")
    algebra = _parse_algebra(alg_doc, f"{path}.algebra", scalars)
    space = _parse_header_space(doc, path)
    # a part that repeats the algebra's over the algebra's space is taken
    # from the algebra: its parse would run the same checks on the same
    # keys, labels and scalar texts, and it shares the algebra's objects
    shared = space == algebra.space
    if shared:
        space = algebra.space
    ops = doc.get("operators")
    _check_keys(ops, _OPERATOR_KEYS, f"{path}.operators")
    alg_ops = alg_doc["operators"]
    D = (algebra.D if shared and ops.get("D") == alg_ops.get("D")
         else _parse_op(ops.get("D"), space, 1, f"{path}.operators.D", scalars))
    _expect(D is not None, "module needs the shift operator D", f"{path}.operators.D")
    L1 = (algebra.L1 if shared and ops.get("L1") == alg_ops.get("L1")
          else _parse_op(ops.get("L1"), space, -1, f"{path}.operators.L1", scalars))
    N0 = _parse_op(ops.get("N0"), space, 0, f"{path}.operators.N0", scalars)

    def table(name, absent_name, kind, first_space, second_space):
        node, absent_node = doc.get(name), doc.get(absent_name)
        if (shared and _repeats(node, alg_doc.get("vertex"))
                and _repeats(absent_node, alg_doc.get("absent"))):
            return algebra.Y.with_kind(kind)
        return _parse_vertex(node, kind, first_space, second_space, space,
                             absent_node, f"{path}.{name}", scalars)

    YL = table("vertex_left", "absent_left", LEFT, algebra.space, space)
    YR = table("vertex_right", "absent_right", RIGHT, space, algebra.space)
    meta = _parse_metadata(doc, path)
    try:
        return ModuleInstance(side, space, algebra, YL=YL, YR=YR, D=D, L1=L1,
                              N0=N0, meta=meta)
    except ValueError as e:
        raise SchemaError(str(e), path) from None


def from_document(doc: dict):
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object", "$")
    kind = doc.get("kind")
    # scalar text -> Fraction, shared by this document's vectors only
    scalars: dict[str, Fraction] = {}
    if kind == "algebra":
        return _parse_algebra(doc, "$", scalars)
    if kind == "module":
        return _parse_module(doc, "$", scalars)
    raise SchemaError(f"unknown kind {kind!r}", "$.kind")


def deserialize(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON at line {e.lineno} column {e.colno}: "
                          f"{e.msg}", "$") from None
    except ValueError as e:
        # valid JSON that Python cannot hold, such as an integer literal
        # longer than the int string conversion limit
        raise SchemaError(str(e), "$") from None
    except RecursionError:
        # json.loads recurses once per nested array or object
        raise SchemaError("JSON nested too deeply", "$") from None
    return from_document(doc)


def save(inst, path) -> None:
    """Serialize first, so that a failure leaves the file as it was."""
    text = serialize(inst)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return deserialize(fh.read())
