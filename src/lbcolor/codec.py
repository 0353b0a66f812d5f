"""JSON codec for instances and colorings.

Instance document layout::

    {"mode": "vertex"|"edge", "n": int, "edges": [[u, v], ...],
     "k": int, "p": int,
     "part_of": [int, ...], "weight": [int, ...],
     "bounds": [[int, ...], ...], "allowed": [[int, ...], ...],
     "profit": [[int, ...], ...],                  # optional
     "decomposition": {"bags": [[v, ...], ...],    # optional
                       "tree_edges": [[i, j], ...], "root": int},
     "metadata": {...}}                            # optional, ignored

part_of/weight/allowed are element-indexed: vertex order in vertex mode,
edges-array order in edge mode.  Vertices are 0-based, colors and parts
1-based.

The codec only maps JSON to the model types: it checks that each document
is an object and that its required keys are present.  Field types, shapes
and invariants are checked by ``ColoringInstance`` and ``RawDecomposition``
when they are constructed.

Every document the package writes, to a file or on stdout, is exactly
``json.dumps(doc, indent=2)`` followed by a newline.  ``_indented_json``
writes it: the standard library runs its C encoder only without ``indent``,
and its pure-Python indenting encoder is several times slower and leaves a
reference cycle behind on every call.  Paths may be ``str``, ``bytes`` or
any ``os.PathLike``; anything else is taken for an open text stream.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from json.encoder import encode_basestring_ascii

from .errors import InstanceFormatError
from .instance import Coloring, ColoringInstance, RawDecomposition, _all_ints


def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{where}: expected a JSON object")
    return doc


def _require(doc: dict, key: str, path: str = ""):
    if key not in doc:
        raise InstanceFormatError(f"{path}{key}: missing field")
    return doc[key]


def decomposition_from_doc(doc: dict) -> RawDecomposition:
    return RawDecomposition(
        bags=_require(doc, "bags", "decomposition."),
        tree_edges=_require(doc, "tree_edges", "decomposition."),
        root=_require(doc, "root", "decomposition."),
    )


def instance_from_doc(doc: dict) -> ColoringInstance:
    _object(doc, "document")
    decomposition = doc.get("decomposition")
    if decomposition is not None:
        decomposition = decomposition_from_doc(_object(decomposition, "decomposition"))
    return ColoringInstance(
        mode=_require(doc, "mode"),
        n=_require(doc, "n"),
        edges=_require(doc, "edges"),
        k=_require(doc, "k"),
        p=_require(doc, "p"),
        part_of=_require(doc, "part_of"),
        weight=_require(doc, "weight"),
        bounds=_require(doc, "bounds"),
        allowed=_require(doc, "allowed"),
        profit=doc.get("profit"),
        decomposition=decomposition,
    )


def instance_to_doc(inst: ColoringInstance) -> dict:
    doc = {
        "mode": inst.mode,
        "n": inst.n,
        "edges": [list(e) for e in inst.edges],
        "k": inst.k,
        "p": inst.p,
        "part_of": list(inst.part_of),
        "weight": list(inst.weight),
        "bounds": [list(row) for row in inst.bounds],
        "allowed": [sorted(a) for a in inst.allowed],
    }
    if inst.profit is not None:
        doc["profit"] = [list(row) for row in inst.profit]
    if inst.decomposition is not None:
        doc["decomposition"] = {
            "bags": [list(b) for b in inst.decomposition.bags],
            "tree_edges": [list(e) for e in inst.decomposition.tree_edges],
            "root": inst.decomposition.root,
        }
    return doc


def coloring_from_doc(doc: dict) -> Coloring:
    return Coloring(_require(_object(doc, "document"), "color_of"))


def coloring_to_doc(col: Coloring) -> dict:
    return {"color_of": list(col.color_of)}


_PATH_TYPES = (str, bytes, os.PathLike)


def _key_json(key) -> str:
    """A dict key as the JSON encoder writes it, always a quoted string; a
    key of another type than str, int, float, bool or None raises the
    encoder's ``TypeError``."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    return json.dumps({key: 0})[1:-4]


def _indented_json(value) -> str:
    """Exactly ``json.dumps(value, indent=2)``, built at C speed.

    A list of ints (bools excluded) is one ``str.join``, and a list of such
    lists (the edges, bounds, profit and allowed rows) is one ``%`` format
    of a template joined from one row template per row length.  Strings and
    ``str`` keys go through ``encode_basestring_ascii``, every other scalar
    and key through ``json.dumps``, so NaN, bools, escapes and non-ASCII
    text come out as the encoder writes them.  Containers are walked with an
    explicit stack, as deep as the input nests; one that contains itself
    raises ``ValueError`` as the encoder does.
    """
    out = []
    # the ids of the containers open on the path from the root, innermost
    # last, as the encoder's markers
    open_ids = {}
    # each entry is text to copy, a (value, newline) pair to render, where
    # newline is "\n" plus the value's own indent, or None once the innermost
    # open container's closing text is copied
    todo = [(value, "\n")]
    while todo:
        item = todo.pop()
        if item is None:
            open_ids.popitem()
            continue
        if type(item) is str:
            out.append(item)
            continue
        value, newline = item
        inner = newline + "  "
        if isinstance(value, str):
            out.append(encode_basestring_ascii(value))
        elif isinstance(value, (list, tuple)):
            if not value:
                out.append("[]")
                continue
            if _all_ints(value):
                out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
                continue
            if set(map(type, value)) <= {list, tuple} and _all_ints(cells := tuple(chain.from_iterable(value))):
                cell = inner + "  "
                rows = {
                    size: "[" + cell + ("," + cell).join(["%d"] * size) + inner + "]" if size else "[]"
                    for size in set(map(len, value))
                }
                template = ("," + inner).join(map(rows.__getitem__, map(len, value)))
                out.append(("[" + inner + template + newline + "]") % cells)
                continue
            if id(value) in open_ids:
                raise ValueError("Circular reference detected")
            open_ids[id(value)] = None
            out.append("[")
            todo += (None, newline + "]")
            for index in range(len(value) - 1, -1, -1):
                todo += ((value[index], inner), "," + inner if index else inner)
        elif isinstance(value, dict):
            if not value:
                out.append("{}")
                continue
            if id(value) in open_ids:
                raise ValueError("Circular reference detected")
            open_ids[id(value)] = None
            out.append("{")
            todo += (None, newline + "}")
            entries = list(value.items())
            for index in range(len(entries) - 1, -1, -1):
                key, entry = entries[index]
                todo += ((entry, inner), ("," + inner if index else inner) + _key_json(key) + ": ")
        else:
            out.append(json.dumps(value))
    return "".join(out)


def _load(source) -> dict:
    try:
        if isinstance(source, _PATH_TYPES):
            with open(source, "r", encoding="utf-8") as f:
                return json.load(f)
        return json.load(source)
    # ValueError covers a syntax error, bytes that are not UTF-8 and an int
    # literal past the digit limit; RecursionError, nesting too deep
    except (ValueError, RecursionError) as exc:
        raise InstanceFormatError(f"malformed JSON: {exc}") from exc


def _dump(doc: dict, target) -> None:
    # one write of the whole text: json.dump hands a file hundreds of chunks
    text = _indented_json(doc) + "\n"
    if isinstance(target, _PATH_TYPES):
        with open(target, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        target.write(text)


def read_instance(source) -> ColoringInstance:
    """Read an instance from a path or text stream; constructing it checks
    every field and invariant."""
    return instance_from_doc(_load(source))


def write_instance(inst: ColoringInstance, target) -> None:
    _dump(instance_to_doc(inst), target)


def read_coloring(source) -> Coloring:
    return coloring_from_doc(_load(source))


def write_coloring(col: Coloring, target) -> None:
    _dump(coloring_to_doc(col), target)
