"""The instance-file reader and writer as they stood before the one-walk
table loader and the flat table emitter in ``mosva.document``, kept
verbatim: ``_parse_vec``, ``_parse_vertex``, ``_emit`` and ``serialize``.

The reader parses every vector of a vertex table through ``_parse_vec``;
the writer walks the nested ``to_document`` lists.  ``oracle_from_document``
runs ``mosva.document.from_document`` with this ``_parse_vertex`` in place of
the new one.  Tests compare the new reader and writer against these in
bytes, loaded entries, entry and label order, absences and errors.
"""

import json
from contextlib import contextmanager

from json.encoder import encode_basestring_ascii as _quote

from mosva import document
from mosva.document import to_document
from mosva.errors import SchemaError
from mosva.graded import Vec
from mosva.vertex import VertexMap, _key_problem


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
            c = scalars[sc] = document._parse_scalar_at(sc, f"{path}[{i}]")
        entries[lbl] = c
        zeros = zeros or not c
    if zeros:
        # dropping zeros, a repeated label keeps its first place and last value
        entries = {l: c for l, c in entries.items() if c}
    return Vec._wrap(space, entries)


def _parse_vertex(doc, kind, first_space, second_space, out_space, absent_doc, path,
                  scalars):
    """Each entry and each absent key is checked once here, so the map is
    built without a second check."""
    if doc is None:
        if absent_doc:
            raise SchemaError("absent keys without a vertex table", f"{path}-absent")
        return None
    if not isinstance(doc, list):
        raise SchemaError("expected a list of entries", path)
    firsts, seconds = first_space.label_weights, second_space.label_weights
    entries = {}
    for i, item in enumerate(doc):
        if not (isinstance(item, list) and len(item) == 4):
            raise SchemaError("expected [first, mode, second, vector]", f"{path}[{i}]")
        f, n, s, out = item
        problem = _key_problem(f, n, s, firsts, seconds)
        if problem is None and (f, n, s) in entries:
            problem = "duplicate entry"
        if problem is not None:
            raise SchemaError(problem, f"{path}[{i}]")
        entries[(f, n, s)] = _parse_vec(out, out_space, f"{path}[{i}]", scalars)
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


def _emit(node, newline_indent) -> str:
    """``json.dumps(node, indent=1)`` for a node whose lines are indented by
    ``newline_indent`` (a line break and the node's depth in spaces).
    Strings, ints, bools, None and lists and str-keyed dicts of them are
    written here, each container joined from its children's texts rather
    than kept as one chunk per token until the end.  Any other node is
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
        inner = newline_indent + " "
        if len(node) == 2 and type(node[0]) is str and type(node[1]) is str:
            # the [label, scalar] pair of a vector
            return f"[{inner}{_quote(node[0])},{inner}{_quote(node[1])}{newline_indent}]"
        items = [_emit(item, inner) for item in node]
        return f"[{inner}{(',' + inner).join(items)}{newline_indent}]"
    if kind is dict and all(type(key) is str for key in node):
        if not node:
            return "{}"
        inner = newline_indent + " "
        items = [f"{_quote(key)}: {_emit(value, inner)}" for key, value in node.items()]
        return f"{{{inner}{(',' + inner).join(items)}{newline_indent}}}"
    if node is None:
        return "null"
    if node is True:
        return "true"
    if node is False:
        return "false"
    return json.dumps(node, indent=1).replace("\n", newline_indent)


def serialize(inst) -> str:
    """``json.dumps(to_document(inst), indent=1)`` and a final newline, byte
    for byte, without the pure-Python encoder that ``indent`` selects."""
    return _emit(to_document(inst), "\n") + "\n"


@contextmanager
def _old_tables():
    new = document._parse_vertex
    document._parse_vertex = _parse_vertex
    try:
        yield
    finally:
        document._parse_vertex = new


def oracle_from_document(doc):
    """``mosva.document.from_document`` with every vertex table read by the
    ``_parse_vertex`` above."""
    with _old_tables():
        return document.from_document(doc)
