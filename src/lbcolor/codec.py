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
"""

from __future__ import annotations

import json

from .errors import InstanceFormatError
from .instance import Coloring, ColoringInstance, RawDecomposition


def _require(doc: dict, key: str, kind, path: str = ""):
    where = f"{path}{key}"
    if key not in doc:
        raise InstanceFormatError(f"{where}: missing field")
    value = doc[key]
    if kind is int and isinstance(value, bool):
        raise InstanceFormatError(f"{where}: expected an integer")
    if not isinstance(value, kind):
        raise InstanceFormatError(f"{where}: expected {kind.__name__}")
    return value


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(raw, name: str):
    for i, x in enumerate(raw):
        if not _is_int(x):
            raise InstanceFormatError(f"{name}[{i}]: expected an integer")
    return tuple(raw)


def _int_pairs(raw, name: str):
    pairs = []
    for i, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2:
            raise InstanceFormatError(f"{name}[{i}]: expected a pair")
        if not all(_is_int(x) for x in item):
            raise InstanceFormatError(f"{name}[{i}]: expected integers")
        a, b = item
        pairs.append((a, b))
    return tuple(pairs)


def _int_rows(raw, name: str):
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise InstanceFormatError(f"{name}[{i}]: expected a list")
        if not all(_is_int(x) for x in row):
            raise InstanceFormatError(f"{name}[{i}]: expected integers")
        rows.append(tuple(row))
    return tuple(rows)


def decomposition_from_doc(doc: dict) -> RawDecomposition:
    bags = _int_rows(_require(doc, "bags", list, "decomposition."), "decomposition.bags")
    tree_edges = _int_pairs(
        _require(doc, "tree_edges", list, "decomposition."), "decomposition.tree_edges"
    )
    root = _require(doc, "root", int, "decomposition.")
    return RawDecomposition(bags=bags, tree_edges=tree_edges, root=root)


def instance_from_doc(doc: dict) -> ColoringInstance:
    if not isinstance(doc, dict):
        raise InstanceFormatError("document: expected a JSON object")
    mode = _require(doc, "mode", str)
    decomposition = None
    if doc.get("decomposition") is not None:
        if not isinstance(doc["decomposition"], dict):
            raise InstanceFormatError("decomposition: expected an object")
        decomposition = decomposition_from_doc(doc["decomposition"])
    profit = None
    if doc.get("profit") is not None:
        profit = _int_rows(_require(doc, "profit", list), "profit")
    allowed_rows = _int_rows(_require(doc, "allowed", list), "allowed")
    return ColoringInstance(
        mode=mode,
        n=_require(doc, "n", int),
        edges=_int_pairs(_require(doc, "edges", list), "edges"),
        k=_require(doc, "k", int),
        p=_require(doc, "p", int),
        part_of=_int_list(_require(doc, "part_of", list), "part_of"),
        weight=_int_list(_require(doc, "weight", list), "weight"),
        bounds=_int_rows(_require(doc, "bounds", list), "bounds"),
        allowed=tuple(frozenset(row) for row in allowed_rows),
        profit=profit,
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
    if not isinstance(doc, dict):
        raise InstanceFormatError("document: expected a JSON object")
    colors = _require(doc, "color_of", list)
    return Coloring(_int_list(colors, "color_of"))


def coloring_to_doc(col: Coloring) -> dict:
    return {"color_of": list(col.color_of)}


def _load(source) -> dict:
    try:
        if isinstance(source, (str, bytes)):
            with open(source, "r", encoding="utf-8") as f:
                return json.load(f)
        return json.load(source)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"malformed JSON: {exc}") from exc


def _dump(doc: dict, target) -> None:
    if isinstance(target, (str, bytes)):
        with open(target, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    else:
        json.dump(doc, target, indent=2)
        target.write("\n")


def read_instance(source) -> ColoringInstance:
    """Read an instance from a path or text stream, re-checking all invariants."""
    return instance_from_doc(_load(source))


def write_instance(inst: ColoringInstance, target) -> None:
    _dump(instance_to_doc(inst), target)


def read_coloring(source) -> Coloring:
    return coloring_from_doc(_load(source))


def write_coloring(col: Coloring, target) -> None:
    _dump(coloring_to_doc(col), target)
