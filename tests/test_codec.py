import io
import json
import random

import pytest

from lbcolor import (
    InstanceFormatError,
    PartitionSource,
    gen_from_partition,
    instance_from_doc,
    instance_to_doc,
    read_coloring,
    read_instance,
    write_coloring,
    write_instance,
)
from lbcolor import codec
from lbcolor.instance import Coloring

from corpus import random_edge_instance, random_vertex_instance


def doc_of(**overrides):
    doc = {
        "mode": "vertex", "n": 2, "edges": [], "k": 2, "p": 1,
        "part_of": [1, 1], "weight": [1, 1], "bounds": [[1, 1]],
        "allowed": [[1, 2], [1, 2]],
    }
    doc.update(overrides)
    return doc


def test_round_trip_random_instances():
    rng = random.Random(9)
    for _ in range(30):
        inst = random_vertex_instance(rng, profit=rng.random() < 0.5)
        assert instance_from_doc(instance_to_doc(inst)) == inst
    for _ in range(30):
        inst = random_edge_instance(rng)
        assert instance_from_doc(instance_to_doc(inst)) == inst


def test_round_trip_generator_output_through_files(tmp_path):
    inst = gen_from_partition(PartitionSource((1, 1, 2), 2), "edge").instance
    path = tmp_path / "inst.json"
    write_instance(inst, str(path))
    assert read_instance(str(path)) == inst


def test_bound_sum_mismatch_names_row():
    with pytest.raises(InstanceFormatError, match=r"bounds\[1\]"):
        instance_from_doc(doc_of(bounds=[[1, 2]]))


def test_zero_based_color_rejected():
    with pytest.raises(InstanceFormatError, match=r"allowed\[0\]"):
        instance_from_doc(doc_of(mode="edge", n=2, edges=[[0, 1]], part_of=[1],
                                 weight=[2], bounds=[[1, 1]], allowed=[[0]]))


@pytest.mark.parametrize("field, value", [
    ("edges", [[True, False]]),
    ("part_of", [True, 1]),
    ("weight", [True, True]),
])
def test_json_booleans_rejected(field, value):
    doc = doc_of(**{field: value})
    with pytest.raises(InstanceFormatError, match=field):
        instance_from_doc(json.loads(json.dumps(doc)))


def test_unknown_mode_rejected():
    with pytest.raises(InstanceFormatError, match="mode"):
        instance_from_doc(doc_of(mode="hyperedge"))


def test_missing_field_and_malformed_json():
    doc = doc_of()
    del doc["weight"]
    with pytest.raises(InstanceFormatError, match="weight"):
        instance_from_doc(doc)
    with pytest.raises(InstanceFormatError, match="malformed"):
        read_instance(io.StringIO("{not json"))


def test_metadata_key_is_ignored():
    doc = doc_of()
    doc["metadata"] = {"anything": 1}
    inst = instance_from_doc(doc)
    assert inst.n == 2


def test_decomposition_field_round_trip():
    doc = doc_of(n=3, edges=[[0, 1], [1, 2]], part_of=[1, 1, 1], weight=[1, 1, 1],
                 bounds=[[2, 1]], allowed=[[1, 2]] * 3,
                 decomposition={"bags": [[0, 1], [1, 2]], "tree_edges": [[0, 1]], "root": 0})
    inst = instance_from_doc(doc)
    assert inst.decomposition.bags == ((0, 1), (1, 2))
    assert instance_from_doc(instance_to_doc(inst)) == inst


def test_coloring_docs(tmp_path):
    col = Coloring((1, 2, 1))
    path = tmp_path / "col.json"
    write_coloring(col, str(path))
    assert read_coloring(str(path)) == col
    with pytest.raises(InstanceFormatError):
        read_coloring(io.StringIO(json.dumps({"colors": [1]})))


def dumped_in_chunks(doc):
    """The text that ``json.dump`` streams to a file, chunk by chunk, with
    the final newline: what the codec wrote before it dumped in one call."""
    out = io.StringIO()
    json.dump(doc, out, indent=2)
    out.write("\n")
    return out.getvalue()


def test_dump_writes_the_same_bytes_in_one_call(tmp_path):
    rng = random.Random(17)
    docs = [instance_to_doc(random_vertex_instance(rng, profit=rng.random() < 0.5)) for _ in range(20)]
    docs += [instance_to_doc(random_edge_instance(rng, profit=rng.random() < 0.5)) for _ in range(20)]
    generated = gen_from_partition(PartitionSource(values=(3, 1, 1, 2, 2, 1), target=5), "vertex")
    docs.append(dict(instance_to_doc(generated.instance), metadata=generated.metadata))
    docs.append({"color_of": [1, 2, 3]})
    path = tmp_path / "doc.json"
    for doc in docs:
        want = dumped_in_chunks(doc)
        stream = io.StringIO()
        codec._dump(doc, stream)
        assert stream.getvalue() == want
        codec._dump(doc, str(path))
        assert path.read_bytes() == want.encode("utf-8")
    assert docs[-2]["metadata"]
