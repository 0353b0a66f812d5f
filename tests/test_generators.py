import random
import re

import pytest

from lbcolor import (
    ClassReport,
    InstanceFormatError,
    OneInThreeSatSource,
    PartitionSource,
    ThreeDimMatchingSource,
    ThreePartitionSource,
    UsageError,
    brute_force_solve,
    build_nice_decomposition,
    gen_from_one_in_three_sat,
    gen_from_partition,
    gen_from_three_dim_matching,
    gen_from_three_partition,
    generate,
    instance_from_doc,
    instance_to_doc,
    solve_complete_bipartite,
    solve_components_k2,
    solve_isolated_k_fixed,
    solve_split_singular,
)
from lbcolor.generators import source_from_doc, source_to_doc

from corpus import (
    one_in_three_answer,
    partition_answer,
    random_one_in_three_source,
    random_partition_source,
    random_three_dim_source,
    random_three_partition_source,
    three_dim_matching_answer,
    three_partition_answer,
)


# ---------------------------------------------------------------------------
# source validation and codec


def test_source_side_conditions_enforced():
    with pytest.raises(InstanceFormatError):
        PartitionSource(values=(1, 2), target=2)  # sum != 2*target
    with pytest.raises(InstanceFormatError):
        ThreePartitionSource(values=(4, 4, 4, 4, 4, 4), target=16)  # 4 <= 16/4
    with pytest.raises(InstanceFormatError):
        OneInThreeSatSource(num_variables=3, clauses=((1, 1, 2),))  # repeated var
    with pytest.raises(InstanceFormatError):
        ThreeDimMatchingSource(size=1, triples=((1, 2, 1),))  # index out of range


def test_source_doc_round_trip():
    rng = random.Random(151)
    sources = [
        random_partition_source(rng),
        random_three_partition_source(rng),
        random_one_in_three_source(rng),
        random_three_dim_source(rng),
    ]
    for src in sources:
        assert source_from_doc(source_to_doc(src)) == src
    with pytest.raises(InstanceFormatError):
        source_from_doc({"type": "subset_sum"})


@pytest.mark.parametrize("doc, field", [
    ({"type": "partition", "values": [1, 1, 2], "target": "1"}, "partition: target"),
    ({"type": "three_partition", "values": [3, 3, 3, 3, 3, "3"], "target": 9}, "three_partition: values[5]"),
    ({"type": "three_partition", "values": [3, 3, 3, 3, 3, 3], "target": "9"}, "three_partition: target"),
    ({"type": "one_in_three_sat", "num_variables": "3", "clauses": [[1, 2, 3]]}, "one_in_three_sat: num_variables"),
    ({"type": "one_in_three_sat", "num_variables": 3, "clauses": [[True, 2, 3]]}, "one_in_three_sat: clauses[0]"),
    ({"type": "three_dim_matching", "size": True, "triples": [[1, 1, 1]]}, "three_dim_matching: size"),
    ({"type": "three_dim_matching", "size": 1, "triples": [5]}, "three_dim_matching: triples[0]"),
])
def test_source_field_types_checked(doc, field):
    with pytest.raises(InstanceFormatError, match=re.escape(field)):
        source_from_doc(doc)


# ---------------------------------------------------------------------------
# partition


def test_partition_vertex_examples():
    g = gen_from_partition(PartitionSource((1, 1, 2), 2), "vertex")
    assert g.instance.n == 3 and not g.instance.edges
    assert g.instance.bounds == ((2, 2),)
    assert brute_force_solve(g.instance).feasible

    assert brute_force_solve(gen_from_partition(PartitionSource((1, 1), 1)).instance).feasible
    assert not brute_force_solve(gen_from_partition(PartitionSource((1, 3), 2)).instance).feasible


def test_partition_ground_truth_both_variants():
    rng = random.Random(157)
    for _ in range(40):
        src = random_partition_source(rng)
        expected = partition_answer(src.values, src.target)
        for variant in ("vertex", "edge"):
            inst = gen_from_partition(src, variant).instance
            assert brute_force_solve(inst).feasible == expected
        assert solve_isolated_k_fixed(gen_from_partition(src, "vertex").instance).feasible == expected


# ---------------------------------------------------------------------------
# three partition


def test_three_partition_isolated_example():
    src = ThreePartitionSource(values=(3, 3, 3, 3, 3, 3), target=9)
    inst = gen_from_three_partition(src, "isolated").instance
    assert inst.n == 6 and inst.k == 2 and inst.bounds == ((9, 9),)
    assert brute_force_solve(inst).feasible


def test_three_partition_star_forest_structure():
    n, target = 2, 9
    src = ThreePartitionSource(values=(3,) * 6, target=target)
    inst = gen_from_three_partition(src, "star_forest").instance
    assert inst.n == 3 * n * n * (n * target + 1) + 3 * n == 234
    assert inst.k == 3 * n * n + 4 * n == 20
    assert inst.unit_weights and inst.p == 1
    # hubs carry n+1 allowed colors: the value color plus the value's tags
    v = 0
    for i in range(1, 3 * n + 1):
        for j in range(1, n + 1):
            hub_list = inst.allowed[v]
            assert len(hub_list) == n + 1
            assert hub_list == frozenset([n + i] + list(range(n * i + 3 * n + 1, n * i + 4 * n + 1)))
            v += 1 + 3 * n * src.values[i - 1]
    # floating selectors close out the vertex list
    for i in range(1, 3 * n + 1):
        assert inst.allowed[v] == frozenset(range(n * i + 3 * n + 1, n * i + 4 * n + 1))
        v += 1
    assert v == inst.n
    assert ClassReport(inst).cograph
    assert build_nice_decomposition(inst)[1] <= 1


def test_three_partition_ground_truth():
    rng = random.Random(163)
    for _ in range(12):
        src = random_three_partition_source(rng)
        expected = three_partition_answer(src.values, src.target)
        inst = gen_from_three_partition(src, "isolated").instance
        assert brute_force_solve(inst).feasible == expected
        assert solve_isolated_k_fixed(inst).feasible == expected


def test_star_forest_needs_two_groups():
    values = (3, 3, 3)
    src = ThreePartitionSource(values=values, target=9)
    with pytest.raises(UsageError):
        gen_from_three_partition(src, "star_forest")


# ---------------------------------------------------------------------------
# one-in-three SAT


def test_one_in_three_star_forest_example():
    src = OneInThreeSatSource(num_variables=3, clauses=((1, 2, 3),))
    inst = gen_from_one_in_three_sat(src, "star_forest").instance
    assert inst.k == 2 and inst.p == 3 + 1
    # each star: hub + (occ+1) leaves; occ = 1 for all three variables
    assert inst.n == 3 * (1 + 2)
    assert brute_force_solve(inst).feasible


def test_one_in_three_complete_bipartite_example():
    src = OneInThreeSatSource(num_variables=3, clauses=((1, 2, 3),))
    inst = gen_from_one_in_three_sat(src, "complete_bipartite").instance
    assert inst.k == 7
    assert inst.n == (1 + 3) + 3
    assert inst.bounds[0][2 * 3] == 1  # overflow color bound equals clause count
    assert ClassReport(inst).complete_bipartite
    assert brute_force_solve(inst).feasible


def test_one_in_three_ground_truth_all_variants():
    rng = random.Random(167)
    tested = 0
    while tested < 25:
        src = random_one_in_three_source(rng)
        expected = one_in_three_answer(src.num_variables, src.clauses)
        sf = gen_from_one_in_three_sat(src, "star_forest").instance
        assert solve_components_k2(sf).feasible == expected
        if 2 ** sf.num_elements <= 10 ** 6:
            assert brute_force_solve(sf).feasible == expected
        cb = gen_from_one_in_three_sat(src, "complete_bipartite").instance
        assert solve_complete_bipartite(cb).feasible == expected
        cy = gen_from_one_in_three_sat(src, "cycles_edges").instance
        if 2 ** cy.num_elements <= 10 ** 6:
            assert brute_force_solve(cy).feasible == expected
        tested += 1


def test_cycles_edges_components_are_c4_or_single_edges():
    rng = random.Random(173)
    for _ in range(10):
        src = random_one_in_three_source(rng)
        inst = gen_from_one_in_three_sat(src, "cycles_edges").instance
        degree = [0] * inst.n
        nbr = [[] for _ in range(inst.n)]
        for u, v in inst.edges:
            degree[u] += 1
            degree[v] += 1
            nbr[u].append(v)
            nbr[v].append(u)
        seen = [False] * inst.n
        for start in range(inst.n):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            stack = [start]
            while stack:
                u = stack.pop()
                for w in nbr[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            degs = sorted(degree[v] for v in comp)
            assert degs in ([1, 1], [2, 2, 2, 2]), degs
        occurrences = sum(src.occurrences())
        assert len(inst.edges) == 5 * occurrences
        assert inst.p == 2 * occurrences + len(src.clauses)


# ---------------------------------------------------------------------------
# three-dimensional matching


def test_three_dim_single_triple():
    src = ThreeDimMatchingSource(size=1, triples=((1, 1, 1),))
    inst = gen_from_three_dim_matching(src).instance
    assert inst.n == 4 and inst.k == 1 and inst.bounds == ((4,),)
    assert brute_force_solve(inst).feasible


def test_three_dim_duplicate_triples():
    src = ThreeDimMatchingSource(size=1, triples=((1, 1, 1), (1, 1, 1)))
    inst = gen_from_three_dim_matching(src).instance
    assert inst.k == 2 and inst.bounds == ((4, 1),)
    assert brute_force_solve(inst).feasible


def test_three_dim_requires_enough_triples():
    with pytest.raises(UsageError):
        gen_from_three_dim_matching(ThreeDimMatchingSource(size=2, triples=((1, 1, 1),)))


def test_three_dim_ground_truth_and_split_shape():
    rng = random.Random(179)
    for _ in range(25):
        src = random_three_dim_source(rng)
        expected = three_dim_matching_answer(src.size, src.triples)
        inst = gen_from_three_dim_matching(src).instance
        if inst.k ** inst.num_elements <= 10 ** 6:
            assert brute_force_solve(inst).feasible == expected
        assert solve_split_singular(inst).feasible == expected
        sp = inst.split_partition
        assert sp is not None
        assert len(sp.clique) == len(src.triples)
        assert len(sp.independent) == 3 * src.size
        assert all(inst.bounds[0][c - 1] in (1, 4) for c in range(1, inst.k + 1))


# ---------------------------------------------------------------------------
# shared properties


def test_generated_instances_survive_codec_round_trip():
    rng = random.Random(181)
    gens = [
        generate(random_partition_source(rng), "vertex"),
        generate(random_partition_source(rng), "edge"),
        generate(random_three_partition_source(rng), "isolated"),
        generate(random_three_partition_source(rng), "star_forest"),
        generate(random_one_in_three_source(rng), "star_forest"),
        generate(random_one_in_three_source(rng), "complete_bipartite"),
        generate(random_one_in_three_source(rng), "cycles_edges"),
        generate(random_three_dim_source(rng)),
    ]
    for g in gens:
        assert instance_from_doc(instance_to_doc(g.instance)) == g.instance
        assert g.metadata["source"] == source_to_doc(source_from_doc(g.metadata["source"]))


def test_star_forest_outputs_are_star_forests():
    rng = random.Random(191)
    for _ in range(10):
        src = random_one_in_three_source(rng)
        inst = gen_from_one_in_three_sat(src, "star_forest").instance
        assert ClassReport(inst).cograph
        assert build_nice_decomposition(inst)[1] <= 1


def test_unknown_variant_rejected():
    with pytest.raises(UsageError):
        generate(PartitionSource((1, 1), 1), "clique")
    with pytest.raises(UsageError):
        generate(PartitionSource((1, 1), 1))  # ambiguous without a variant
