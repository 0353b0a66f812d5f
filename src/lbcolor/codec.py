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
"""

from __future__ import annotations

import json

from .errors import InstanceFormatError
from .instance import Coloring, ColoringInstance, RawDecomposition


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


def _load(source) -> dict:
    try:
        if isinstance(source, (str, bytes)):
            with open(source, "r", encoding="utf-8") as f:
                return json.load(f)
        return json.load(source)
    # ValueError covers a syntax error, bytes that are not UTF-8 and an int
    # literal past the digit limit; RecursionError, nesting too deep
    except (ValueError, RecursionError) as exc:
        raise InstanceFormatError(f"malformed JSON: {exc}") from exc


def _dump(doc: dict, target) -> None:
    # one write of the whole text: json.dump hands a file hundreds of chunks
    text = json.dumps(doc, indent=2) + "\n"
    if isinstance(target, (str, bytes)):
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
