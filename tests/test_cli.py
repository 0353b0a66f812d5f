import argparse
import gc
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lbcolor import cli, cographs, instance_to_doc, split, write_instance
from lbcolor.codec import instance_from_doc
from lbcolor.generators import GENERATORS, generate, source_from_doc
from lbcolor.instance import Coloring, SolveOutcome
from lbcolor.cli import SOLVERS, auto_solver_name, main, solve_with
from lbcolor.oracle import brute_force_solve
from lbcolor.packed import PackedBounds

from corpus import (
    assert_outcome,
    random_edge_instance,
    random_split_instance,
    random_vertex_instance,
)


def full(k):
    return sorted(range(1, k + 1))


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def p3_doc():
    return {
        "mode": "vertex", "n": 3, "edges": [[0, 1], [1, 2]], "k": 2, "p": 1,
        "part_of": [1, 1, 1], "weight": [1, 1, 1], "bounds": [[2, 1]],
        "allowed": [full(2)] * 3,
    }


def two_triangles_doc():
    edges = [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]
    return {
        "mode": "vertex", "n": 6, "edges": edges, "k": 3, "p": 1,
        "part_of": [1] * 6, "weight": [1] * 6, "bounds": [[2, 2, 2]],
        "allowed": [full(3)] * 6,
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_auto_p3_uses_complete_bipartite(tmp_path, capsys):
    path = write_doc(tmp_path, "p3.json", p3_doc())
    code, out, _ = run(capsys, ["solve", "--input", path])
    doc = json.loads(out)
    # P3 is K_{1,2}: the dispatch order reaches complete-bipartite before cograph
    assert code == 0 and doc["status"] == "feasible"
    assert doc["solver_used"] == "complete-bipartite"
    assert doc["witness"]["color_of"] == [1, 2, 1]


def test_solve_auto_cograph_dispatch(tmp_path, capsys):
    path = write_doc(tmp_path, "tt.json", two_triangles_doc())
    code, out, _ = run(capsys, ["solve", "--input", path])
    doc = json.loads(out)
    assert code == 0 and doc["solver_used"] == "cograph"


@pytest.mark.parametrize("mode, objective, solver", [
    ("vertex", "decide", "cograph"),
    ("vertex", "maximize", "cograph"),
    ("vertex", "minimize", "cograph"),
    ("edge", "decide", "cograph-edge"),
])
def test_auto_solve_builds_the_cotree_once(tmp_path, capsys, monkeypatch, mode, objective, solver):
    calls = []
    build = cographs._cotree_or_prime

    def counted(*args):
        calls.append(args[0])
        return build(*args)

    monkeypatch.setattr(cographs, "_cotree_or_prime", counted)
    doc = two_triangles_doc()
    doc["mode"] = mode
    doc["profit"] = [[1, 2, 3]] * 6
    path = write_doc(tmp_path, "tt.json", doc)
    code, out, _ = run(capsys, ["solve", "--input", path, "--objective", objective])
    assert code == 0 and json.loads(out)["solver_used"] == solver
    assert calls == [6]


def test_solve_infeasible_exit_code(tmp_path, capsys):
    doc = p3_doc()
    doc["edges"] = [[0, 1], [1, 2], [0, 2]]
    path = write_doc(tmp_path, "tri.json", doc)
    code, out, _ = run(capsys, ["solve", "--input", path])
    assert code == 1 and json.loads(out)["status"] == "infeasible"


def test_solver_precondition_exit_two(tmp_path, capsys):
    doc = {
        "mode": "vertex", "n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "k": 2, "p": 1,
        "part_of": [1] * 4, "weight": [1] * 4, "bounds": [[2, 2]],
        "allowed": [full(2)] * 4,
    }
    path = write_doc(tmp_path, "p4.json", doc)
    code, _, err = run(capsys, ["solve", "--input", path, "--solver", "cograph"])
    assert code == 2 and "not a cograph" in err


def test_malformed_instance_exit_two(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", {"mode": "vertex"})
    code, _, err = run(capsys, ["solve", "--input", path])
    assert code == 2 and "error:" in err


MALFORMED = {
    "not-utf8": b'{"mode": "vertex", "n": "\xff"}',
    "long-int": b'{"n": ' + b"9" * 4301 + b"}",
    "deep": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("content", MALFORMED.values(), ids=MALFORMED)
@pytest.mark.parametrize("which", ["solve", "check-input", "check-coloring", "generate"])
def test_malformed_file_exits_two_without_a_traceback(tmp_path, capsys, which, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    good = write_doc(tmp_path, "p3.json", p3_doc())
    coloring = write_doc(tmp_path, "col.json", {"color_of": [1, 2, 1]})
    argv = {
        "solve": ["solve", "--input", str(bad)],
        "check-input": ["check", "--input", str(bad), "--coloring", coloring],
        "check-coloring": ["check", "--input", good, "--coloring", str(bad)],
        "generate": ["generate", "--source", str(bad), "--variant", "vertex"],
    }[which]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("error: malformed JSON:")
    assert "Traceback" not in err


OVERSIZED = {
    "deep-n": ("n", json.loads("[" * 900 + "]" * 900)),
    "long-mode": ("mode", "x" * 100_000),
    "long-weight": ("weight", [1, "w" * 50_000, 1]),
}


@pytest.mark.parametrize("field, value", OVERSIZED.values(), ids=OVERSIZED)
@pytest.mark.parametrize("which", ["solve", "check"])
def test_an_oversized_bad_value_gives_a_short_error_line(tmp_path, capsys, which, field, value):
    # the error names the field and shows the value cut short
    path = write_doc(tmp_path, "bad.json", {**p3_doc(), field: value})
    coloring = write_doc(tmp_path, "col.json", {"color_of": [1, 2, 1]})
    argv = ["solve", "--input", path] if which == "solve" else ["check", "--input", path, "--coloring", coloring]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {field}")
    assert len(err) < 200
    assert "Traceback" not in err


def test_an_oversized_source_value_gives_a_short_error_line(tmp_path, capsys):
    path = write_doc(tmp_path, "source.json", {"type": "t" * 50_000})
    code, out, err = run(capsys, ["generate", "--source", path, "--variant", "vertex"])
    assert code == 2 and out == ""
    assert err.startswith("error: source: unknown type 'ttt") and len(err) < 200


def test_generate_matches_library_call(tmp_path, capsys):
    src = {"type": "partition", "values": [1, 1, 2], "target": 2}
    path = write_doc(tmp_path, "part.json", src)
    code, out, _ = run(capsys, ["generate", "--source", path, "--variant", "vertex"])
    assert code == 0
    doc = json.loads(out)
    metadata = doc.pop("metadata")
    assert metadata["source"] == src and metadata["variant"] == "vertex"
    from lbcolor import PartitionSource, gen_from_partition

    assert doc == instance_to_doc(gen_from_partition(PartitionSource((1, 1, 2), 2)).instance)


def test_generate_star_forest_vertex_count(tmp_path, capsys):
    src = {"type": "three_partition", "values": [3, 3, 3, 3, 3, 3], "target": 9}
    path = write_doc(tmp_path, "tp.json", src)
    code, out, _ = run(capsys, ["generate", "--source", path, "--variant", "star_forest"])
    assert code == 0 and json.loads(out)["n"] == 234


def test_generate_bad_source_exit_two(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", {"type": "partition", "values": [1], "target": 3})
    code, _, err = run(capsys, ["generate", "--source", path, "--variant", "vertex"])
    assert code == 2 and "error:" in err


def test_generated_output_feeds_solve(tmp_path, capsys):
    src = {"type": "partition", "values": [1, 1, 2], "target": 2}
    spath = write_doc(tmp_path, "part.json", src)
    code, out, _ = run(capsys, ["generate", "--source", spath, "--variant", "vertex"])
    ipath = write_doc(tmp_path, "inst.json", json.loads(out))
    code, out, _ = run(capsys, ["solve", "--input", ipath])
    assert code == 0 and json.loads(out)["status"] == "feasible"


def readme_generate_cases():
    """(source document, variant) for each source type and variant that the
    README's "File formats" section lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sources = {doc["type"]: doc for doc in map(json.loads, re.findall(r'^\{"type": .*\}$', text, re.M))}
    listed = text.split("Variants:", 1)[1].split(". ", 1)[0]
    cases = {}
    for entry in listed.split(";"):
        kind, *variants = re.findall(r"`(\w+)`", entry)
        cases[kind] = variants
    assert {kind: list(variants) for kind, (_, variants) in GENERATORS.items()} == cases
    return [(sources[kind], variant) for kind, variants in cases.items() for variant in variants]


@pytest.mark.parametrize(
    "source, variant", readme_generate_cases(), ids=lambda case: case if isinstance(case, str) else case["type"]
)
def test_generate_prints_the_indented_json_of_the_document(tmp_path, capsys, source, variant):
    path = write_doc(tmp_path, "source.json", source)
    code, out, _ = run(capsys, ["generate", "--source", path, "--variant", variant])
    result = generate(source_from_doc(source), variant)
    doc = dict(instance_to_doc(result.instance), metadata=result.metadata)
    assert code == 0
    assert out == json.dumps(doc, indent=2) + "\n"


def test_generate_leaves_no_cyclic_garbage(tmp_path, capsys):
    path = write_doc(tmp_path, "source.json", {"type": "partition", "values": [1, 1, 2], "target": 2})
    argv = ["generate", "--source", path, "--variant", "vertex"]
    assert run(capsys, argv)[0] == 0  # builds the parser and imports everything first
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert code == 0 and garbage == 0


def test_check_round_trip_and_violations(tmp_path, capsys):
    ipath = write_doc(tmp_path, "p3.json", p3_doc())
    code, out, _ = run(capsys, ["solve", "--input", ipath])
    witness = json.loads(out)["witness"]
    cpath = write_doc(tmp_path, "col.json", witness)
    code, _, err = run(capsys, ["check", "--input", ipath, "--coloring", cpath])
    assert code == 0

    witness["color_of"][0] = 2  # break properness on edge (0, 1)
    cpath = write_doc(tmp_path, "bad.json", witness)
    code, _, err = run(capsys, ["check", "--input", ipath, "--coloring", cpath])
    assert code == 1 and "properness" in err

    cpath = write_doc(tmp_path, "short.json", {"color_of": [1]})
    code, _, err = run(capsys, ["check", "--input", ipath, "--coloring", cpath])
    assert code == 2


def test_maximize_and_minimize_via_cli(tmp_path, capsys):
    doc = p3_doc()
    doc["profit"] = [[3, -2], [1, 4], [-1, 2]]
    path = write_doc(tmp_path, "p3p.json", doc)
    code, out, _ = run(capsys, ["solve", "--input", path, "--objective", "maximize"])
    best = json.loads(out)
    code, out, _ = run(capsys, ["solve", "--input", path, "--objective", "minimize"])
    worst = json.loads(out)
    assert best["objective"] >= worst["objective"]
    code, out, _ = run(capsys, ["solve", "--input", path, "--objective", "maximize",
                                "--solver", "oracle"])
    assert json.loads(out)["objective"] == best["objective"]


def test_maximize_without_profit_exit_two(tmp_path, capsys):
    path = write_doc(tmp_path, "p3.json", p3_doc())
    code, _, err = run(capsys, ["solve", "--input", path, "--objective", "maximize"])
    assert code == 2 and "profit" in err


def test_determinism_same_args_same_output(tmp_path, capsys):
    rng = random.Random(193)
    for _ in range(6):
        inst = random_vertex_instance(rng, profit=True)
        path = tmp_path / "inst.json"
        write_instance(inst, str(path))
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, ["solve", "--input", str(path), "--objective", "maximize"])
            doc = json.loads(out)
            doc.pop("elapsed_ms")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]


def test_all_applicable_solvers_agree(tmp_path):
    rng = random.Random(197)
    from lbcolor.errors import UsageError

    for _ in range(40):
        inst = random_split_instance(rng) if rng.random() < 0.5 else random_vertex_instance(rng)
        expected = brute_force_solve(inst).status
        assert solve_with(auto_solver_name(inst, "decide"), inst).status == expected
        for name in SOLVERS:
            if name.endswith("edge"):
                continue
            try:
                out = solve_with(name, inst)
            except UsageError:
                continue
            assert out.status == expected, f"{name} disagrees"
            assert_outcome(inst, out)
    for _ in range(25):
        inst = random_edge_instance(rng)
        expected = brute_force_solve(inst).status
        assert solve_with(auto_solver_name(inst, "decide"), inst).status == expected
        for name in ("treewidth-edge", "cograph-edge", "split-edge", "oracle"):
            try:
                out = solve_with(name, inst)
            except UsageError:
                continue
            assert out.status == expected, f"{name} disagrees"
            assert_outcome(inst, out)


def test_auto_dispatch_order():
    def named(n, edges, k=3, unit=True):
        rng = random.Random(0)
        inst = random_vertex_instance(rng, edges=tuple(edges), n=n, k=k,
                                      w_max=1 if unit else 3)
        return auto_solver_name(inst)

    complete = [(u, v) for u in range(3) for v in range(u + 1, 3)]
    assert named(3, complete) == "complete"
    assert named(3, [(0, 1), (0, 2)]) == "complete-bipartite"  # star K_{1,2}
    assert named(3, []) == "isolated-unit"
    assert named(3, [], unit=False) in ("isolated-unit", "isolated-kfixed")
    assert named(4, [(0, 1), (1, 2), (2, 3)]) == "split-kfixed"  # P4 is split
    two_triangles = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    assert named(6, two_triangles) == "cograph"
    c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    assert named(5, c5) == "treewidth"  # C5: not split, not a cograph


def test_edge_mode_maximize_goes_to_treewidth_edge():
    rng = random.Random(199)
    inst = random_edge_instance(rng)
    assert auto_solver_name(inst, "maximize") == "treewidth-edge"


def test_edge_mode_maximize_and_minimize_through_auto_match_oracle():
    rng = random.Random(227)
    for _ in range(200):
        inst = random_edge_instance(rng, profit=True)
        for objective in ("maximize", "minimize"):
            out = solve_with(auto_solver_name(inst, objective), inst, objective)
            ref = brute_force_solve(inst, objective)
            assert (out.status, out.objective) == (ref.status, ref.objective)
            assert_outcome(inst, out)


def prism_edge_doc():
    # C6 x K2: 18 edges, 3^18 colorings (past the oracle cap); rungs take
    # color 3 and each hexagon alternates colors 1 and 2
    edges, planted = [], []
    for ring in (0, 6):
        for i in range(6):
            edges.append([ring + i, ring + (i + 1) % 6])
            planted.append(1 + i % 2)
    for i in range(6):
        edges.append([i, i + 6])
        planted.append(3)
    part_of = [1 + e % 2 for e in range(18)]
    weight = [1 + e % 3 for e in range(18)]
    bounds = [[0] * 3 for _ in range(2)]
    for e, c in enumerate(planted):
        bounds[part_of[e] - 1][c - 1] += weight[e]
    return {
        "mode": "edge", "n": 12, "edges": edges, "k": 3, "p": 2,
        "part_of": part_of, "weight": weight, "bounds": bounds,
        "allowed": [full(3)] * 18,
        "profit": [[(e * 7 + c) % 5 - 2 for c in range(3)] for e in range(18)],
    }


def test_edge_mode_maximize_past_the_oracle_cap(tmp_path, capsys):
    path = write_doc(tmp_path, "prism.json", prism_edge_doc())
    code, out, _ = run(capsys, ["solve", "--input", path, "--objective", "maximize"])
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "feasible"
    assert doc["solver_used"] == "treewidth-edge"
    code, _, _ = run(capsys, ["solve", "--input", path, "--objective", "maximize",
                              "--solver", "oracle"])
    assert code == 2


def test_crash_exits_two_not_infeasible(tmp_path, capsys, monkeypatch):
    def boom(inst, obj):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setitem(SOLVERS, "treewidth", (SOLVERS["treewidth"][0], boom))
    path = write_doc(tmp_path, "p3.json", p3_doc())
    code, out, err = run(capsys, ["solve", "--input", path, "--solver", "treewidth"])
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "error: ZeroDivisionError: division by zero"


def test_state_without_predecessor_exits_two(tmp_path, capsys, monkeypatch):
    # every layer of the edgeless DP also gets the target, which no step reaches
    layers = PackedBounds.layers
    monkeypatch.setattr(
        PackedBounds, "layers",
        lambda self, start, steps: [{self.target: 0, **layer} for layer in layers(self, start, steps)],
    )
    doc = {
        "mode": "vertex", "n": 2, "edges": [], "k": 3, "p": 1, "part_of": [1, 1],
        "weight": [1, 1], "bounds": [[0, 0, 2]], "allowed": [[1, 2], [1, 2]],
    }
    path = write_doc(tmp_path, "lost.json", doc)
    code, out, err = run(capsys, ["solve", "--input", path, "--solver", "isolated-kfixed"])
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("error: RuntimeError: part_weight_assignment: ")


def test_unknown_solver_rejected():
    rng = random.Random(211)
    inst = random_vertex_instance(rng)
    from lbcolor.errors import UsageError

    with pytest.raises(UsageError):
        solve_with("newton", inst)


def test_elapsed_ms_covers_dispatch(tmp_path, capsys, monkeypatch):
    def slow_dispatch(inst, objective="decide"):
        time.sleep(0.05)
        return "treewidth"

    monkeypatch.setattr(cli, "auto_solver_name", slow_dispatch)
    path = write_doc(tmp_path, "p3.json", p3_doc())
    code, out, _ = run(capsys, ["solve", "--input", path])
    doc = json.loads(out)
    assert code == 0 and doc["solver_used"] == "treewidth"
    assert doc["elapsed_ms"] >= 50
    assert set(doc) == {"status", "witness", "objective", "solver_used", "elapsed_ms"}


def test_forced_cograph_edge_checks_its_class(tmp_path, capsys):
    c5 = {
        "mode": "edge", "n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]],
        "k": 3, "p": 1, "part_of": [1] * 5, "weight": [1] * 5, "bounds": [[2, 2, 1]],
        "allowed": [full(3)] * 5,
    }
    path = write_doc(tmp_path, "c5.json", c5)
    code, out, err = run(capsys, ["solve", "--input", path, "--solver", "cograph-edge"])
    assert code == 2 and out == ""
    assert err.strip() == "error: not a cograph: induced P4 on vertices (0, 1, 2, 3)"
    empty = {"mode": "edge", "n": 0, "edges": [], "k": 1, "p": 1, "part_of": [],
             "weight": [], "bounds": [[0]], "allowed": []}
    path = write_doc(tmp_path, "empty.json", empty)
    code, out, _ = run(capsys, ["solve", "--input", path, "--solver", "cograph-edge"])
    assert code == 0 and json.loads(out)["status"] == "feasible"


@pytest.mark.parametrize("objective", ["decide", "maximize", "minimize"])
def test_forced_cograph_solves_the_empty_graph(tmp_path, capsys, objective):
    # the empty graph is a cograph, and its cotree has no nodes
    empty = {"mode": "vertex", "n": 0, "edges": [], "k": 2, "p": 1, "part_of": [],
             "weight": [], "bounds": [[0, 0]], "allowed": [], "profit": []}
    path = write_doc(tmp_path, "empty.json", empty)
    code, out, err = run(capsys, ["solve", "--input", path, "--solver", "cograph", "--objective", objective])
    doc = json.loads(out)
    assert code == 0 and err == ""
    assert (doc["status"], doc["witness"], doc["objective"]) == ("feasible", {"color_of": []}, 0)


def test_forced_cograph_on_a_large_tree_exits_fast(tmp_path, capsys):
    # a random tree on 240 vertices with shuffled labels: the P4 witness of
    # the error message must not cost a scan of every 4-subset
    rng = random.Random(97)
    label = list(range(240))
    rng.shuffle(label)
    edges = sorted(sorted((label[v], label[rng.randrange(v)])) for v in range(1, 240))
    doc = {
        "mode": "vertex", "n": 240, "edges": edges, "k": 2, "p": 1, "part_of": [1] * 240,
        "weight": [1] * 240, "bounds": [[120, 120]], "allowed": [full(2)] * 240,
    }
    path = write_doc(tmp_path, "tree.json", doc)
    started = time.perf_counter()
    code, out, err = run(capsys, ["solve", "--input", path, "--solver", "cograph"])
    assert time.perf_counter() - started < 0.5
    assert code == 2 and out == "" and "induced P4" in err


# ---------------------------------------------------------------------------
# in-process calls: one parser per process, no state carried between calls


@pytest.fixture
def fresh_parser():
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def test_parser_is_built_once_for_many_calls(tmp_path, capsys, monkeypatch, fresh_parser):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    path = write_doc(tmp_path, "p3.json", p3_doc())
    for _ in range(50):
        code, out, _ = run(capsys, ["solve", "--input", path])
        assert code == 0 and json.loads(out)["solver_used"] == "complete-bipartite"
    assert built.count("lbcolor") == 1


def test_shared_parser_keeps_concurrent_parses_apart(fresh_parser):
    argvs = [
        ["solve", "--input", f"in{i}.json", "--solver", solver, "--objective", objective]
        for i, (solver, objective) in enumerate([
            ("auto", "decide"), ("cograph", "maximize"), ("oracle", "minimize"),
            ("treewidth", "decide"), ("split-edge", "decide"), ("complete", "maximize"),
        ])
    ]
    wrong = []

    def parse_many(argv):
        for _ in range(300):
            ns = cli.build_parser().parse_args(argv)
            if [ns.command, ns.input, ns.solver, ns.objective] != argv[::2]:
                wrong.append(argv)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse_many, args=(argv,)) for argv in argvs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_commands_are_looked_up_per_call(tmp_path, capsys, monkeypatch, fresh_parser):
    # a wrapper set on cli.cmd_solve after the parser is built still runs
    path = write_doc(tmp_path, "p3.json", p3_doc())
    assert run(capsys, ["solve", "--input", path])[0] == 0
    monkeypatch.setattr(cli, "cmd_solve", lambda ns: 7)
    assert main(["solve", "--input", path]) == 7


def test_forced_solver_is_not_carried_to_the_next_call(tmp_path, capsys, fresh_parser):
    path = write_doc(tmp_path, "p3.json", p3_doc())
    code, out, _ = run(capsys, ["solve", "--input", path, "--solver", "cograph"])
    assert code == 0 and json.loads(out)["solver_used"] == "cograph"
    code, out, _ = run(capsys, ["solve", "--input", path])
    assert code == 0 and json.loads(out)["solver_used"] == "complete-bipartite"


@pytest.mark.parametrize("argv", [
    ["solve", "--input", "{path}", "--solver", "bogus"],
    ["solve"],
    ["solve", "--input", "{path}", "--objective", "cheapest"],
    ["check", "--input", "{path}"],
])
def test_usage_error_exits_two_and_the_next_call_works(tmp_path, capsys, fresh_parser, argv):
    path = write_doc(tmp_path, "p3.json", p3_doc())
    with pytest.raises(SystemExit) as exc:
        main([arg.format(path=path) for arg in argv])
    assert exc.value.code == 2 and "usage: lbcolor" in capsys.readouterr().err
    code, out, _ = run(capsys, ["solve", "--input", path])
    assert code == 0 and json.loads(out)["status"] == "feasible"


def test_interleaved_commands_print_what_they_print_alone(tmp_path, capsys, fresh_parser):
    p3 = write_doc(tmp_path, "p3.json", p3_doc())
    tt = write_doc(tmp_path, "tt.json", dict(two_triangles_doc(), profit=[[1, 2, 3]] * 6))
    good = write_doc(tmp_path, "good.json", {"color_of": [1, 2, 1]})
    bad = write_doc(tmp_path, "bad.json", {"color_of": [2, 2, 1]})
    source = write_doc(tmp_path, "part.json", {"type": "partition", "values": [1, 1, 2], "target": 2})
    calls = [
        ["solve", "--input", p3],
        ["solve", "--input", p3, "--solver", "oracle"],
        ["solve", "--input", tt, "--objective", "minimize"],
        ["check", "--input", p3, "--coloring", good],
        ["check", "--input", p3, "--coloring", bad],
        ["generate", "--source", source, "--variant", "vertex"],
        ["solve", "--input", str(tmp_path / "missing.json")],
    ]

    def printed(argv):
        code, out, err = run(capsys, argv)
        if argv[0] == "solve" and code != 2:
            out = json.dumps(dict(json.loads(out), elapsed_ms=0))
        return code, out, err

    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(printed(argv))
    assert [code for code, _, _ in alone] == [0, 0, 0, 0, 1, 0, 2]
    order = list(range(len(calls))) * 3
    random.Random(7).shuffle(order)
    for i in order:
        assert printed(calls[i]) == alone[i]


# ---------------------------------------------------------------------------
# routing: one parse per call, by the subcommand's own parser


@pytest.fixture
def parses(monkeypatch):
    """The ``prog`` of every parser whose ``parse_known_args`` runs."""
    progs = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        progs.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    return progs


@pytest.mark.parametrize("command", ["solve", "generate", "check"])
def test_a_valid_call_is_parsed_once_by_its_command_parser(tmp_path, capsys, fresh_parser, parses, command):
    p3 = write_doc(tmp_path, "p3.json", p3_doc())
    argv = {
        "solve": ["solve", "--input", p3, "--objective", "decide"],
        "generate": ["generate", "--source",
                     write_doc(tmp_path, "part.json", {"type": "partition", "values": [1, 1, 2], "target": 2}),
                     "--variant", "vertex"],
        "check": ["check", "--input", p3, "--coloring", write_doc(tmp_path, "col.json", {"color_of": [1, 2, 1]})],
    }[command]
    assert run(capsys, argv)[0] == 0
    assert parses == [f"lbcolor {command}"]


@pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["--input", "{path}"]])
def test_an_argv_naming_no_command_reaches_the_top_level_parser(tmp_path, capsys, fresh_parser, parses, argv):
    path = write_doc(tmp_path, "p3.json", p3_doc())
    with pytest.raises(SystemExit) as exc:
        main([arg.format(path=path) for arg in argv])
    captured = capsys.readouterr()
    assert exc.value.code == (0 if argv == ["-h"] else 2)
    assert "usage: lbcolor [-h] {solve,generate,check}" in captured.out + captured.err
    assert parses == ["lbcolor"]


def test_unrecognized_arguments_print_the_subcommand_usage(tmp_path, capsys, fresh_parser):
    path = write_doc(tmp_path, "p3.json", p3_doc())
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", path, "--bogus"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "usage: lbcolor solve" in err and "unrecognized arguments: --bogus" in err
    code, out, _ = run(capsys, ["solve", "--input", path])
    assert code == 0 and json.loads(out)["status"] == "feasible"


def test_main_without_argv_reads_sys_argv(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, "p3.json", p3_doc())
    monkeypatch.setattr(sys, "argv", ["lbcolor", "solve", "--input", path, "--solver", "oracle"])
    code, out, _ = run(capsys, None)
    assert code == 0 and json.loads(out)["solver_used"] == "oracle"


# ---------------------------------------------------------------------------
# one run of each class test per solve


def edge_split_doc():
    # a triangle with a pendant edge at vertex 0
    return {
        "mode": "edge", "n": 4, "edges": [[0, 1], [0, 2], [1, 2], [0, 3]], "k": 3, "p": 1,
        "part_of": [1] * 4, "weight": [1] * 4, "bounds": [[2, 1, 1]], "allowed": [full(3)] * 4,
    }


def p4_doc():
    return {
        "mode": "vertex", "n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "k": 2, "p": 1,
        "part_of": [1] * 4, "weight": [1] * 4, "bounds": [[2, 2]], "allowed": [full(2)] * 4,
    }


@pytest.fixture
def recognitions(monkeypatch):
    calls = {"split_partition_masks": 0, "complete_bipartite_masks": 0}
    for module, name in ((split, "split_partition_masks"), (cographs, "complete_bipartite_masks")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("doc, solver, split_runs, bipartite_runs", [
    (p4_doc(), "split-kfixed", 1, 1),
    (p3_doc(), "complete-bipartite", 0, 1),
    (edge_split_doc(), "split-edge", 1, 0),
])
def test_auto_solve_runs_each_class_test_once(tmp_path, capsys, recognitions, doc, solver,
                                              split_runs, bipartite_runs):
    path = write_doc(tmp_path, "inst.json", doc)
    code, out, _ = run(capsys, ["solve", "--input", path])
    assert code == 0 and json.loads(out)["solver_used"] == solver
    assert recognitions == {"split_partition_masks": split_runs, "complete_bipartite_masks": bipartite_runs}


@pytest.mark.parametrize("doc, solver", [(p4_doc(), "split-kfixed"), (p3_doc(), "complete-bipartite")])
def test_negated_twin_reuses_the_class_tests(recognitions, doc, solver):
    inst = instance_from_doc(dict(doc, profit=[[1, 2]] * doc["n"]))
    assert auto_solver_name(inst) == solver
    tested = (inst.split_partition, inst.complete_bipartite_sides)
    before = dict(recognitions)
    twin = inst.negated()
    assert (twin.split_partition, twin.complete_bipartite_sides) == tested
    assert solve_with(solver, twin).feasible
    assert recognitions == before


# ---------------------------------------------------------------------------
# the process boundary


def test_python_m_lbcolor_exit_codes(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    triangle = dict(p3_doc(), edges=[[0, 1], [1, 2], [0, 2]])
    cases = [
        (["--input", write_doc(tmp_path, "p3.json", p3_doc())], 0),
        (["--input", write_doc(tmp_path, "tri.json", triangle)], 1),
        (["--input", write_doc(tmp_path, "bad.json", {"mode": "vertex"})], 2),
        (["--input", str(tmp_path / "p3.json"), "--solver", "bogus"], 2),
    ]
    for args, expected in cases:
        proc = subprocess.run([sys.executable, "-m", "lbcolor", "solve", *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == expected, (args, proc.stderr)
        if expected < 2:
            assert json.loads(proc.stdout)["status"] == ("feasible", "infeasible")[expected]


def test_supplied_edge_decomposition_splitting_conflicts_exits_two(tmp_path, capsys):
    doc = {
        "mode": "edge", "n": 3, "edges": [[0, 1], [1, 2]], "k": 2, "p": 1, "part_of": [1, 1],
        "weight": [1, 1], "bounds": [[1, 1]], "allowed": [full(2)] * 2,
        "decomposition": {"bags": [[0, 1], [1, 2]], "tree_edges": [[0, 1]], "root": 0},
    }
    path = write_doc(tmp_path, "split_bags.json", doc)
    code, out, err = run(capsys, ["solve", "--input", path, "--solver", "treewidth-edge"])
    assert code == 2 and out == ""
    assert err.strip() == (
        "error: dp_edge: the decomposition never gathers adjacent edges (0, 1) and (1, 2) into one "
        "bag; build one over the conflict closure (omit the supplied decomposition)"
    )


def clashing(doc, allowed):
    # singleton lists that no coloring meets: propagation alone proves them infeasible
    return dict(doc, allowed=allowed)


@pytest.mark.parametrize("solver, doc, message", [
    ("treewidth", clashing(dict(edge_split_doc(), edges=[[0, 1], [1, 2]], n=3, part_of=[1, 1], weight=[1, 1],
                                bounds=[[2, 0, 0]]), [[1], [1]]),
     "dp_vertex: requires a vertex-mode instance"),
    ("treewidth-edge", clashing(p3_doc(), [[1], [1], [1]]), "dp_edge: requires an edge-mode instance"),
    ("cograph", clashing(dict(p3_doc(), mode="edge", n=4, edges=[[0, 1], [1, 2], [2, 3]]), [[1], [1], [1]]),
     "build_cotree: requires a vertex-mode instance"),
    ("cograph", clashing(p4_doc(), [[1], [1], [2], [2]]), "not a cograph: induced P4 on vertices (0, 1, 2, 3)"),
    ("treewidth", dict(p3_doc(), allowed=[[1], [2], [1]],
                       decomposition={"bags": [[0, 1], [2]], "tree_edges": [[0, 1]], "root": 0}),
     "condition (2): edge (1, 2) is inside no bag"),
    ("treewidth-edge", dict(p3_doc(), mode="edge", n=3, part_of=[1, 1], weight=[1, 1], bounds=[[1, 1]],
                            allowed=[[1], [2]],
                            decomposition={"bags": [[0, 1], [1, 2]], "tree_edges": [[0, 1]], "root": 0}),
     "dp_edge: the decomposition never gathers adjacent edges (0, 1) and (1, 2) into one bag; build one "
     "over the conflict closure (omit the supplied decomposition)"),
])
@pytest.mark.parametrize("objective", ["decide", "maximize", "minimize"])
def test_forced_runners_check_the_whole_instance_first(tmp_path, capsys, solver, doc, message, objective):
    # every element of these is forced (or clashes), so no DP would run: the
    # checks of the decomposition or cotree and of the DP still must
    doc = dict(doc, profit=[[1] * doc["k"]] * len(doc["allowed"]))
    path = write_doc(tmp_path, "inst.json", doc)
    code, out, err = run(capsys, ["solve", "--input", path, "--solver", solver, "--objective", objective])
    assert (code, out, err.strip()) == (2, "", f"error: {message}")


@pytest.mark.parametrize("solver", ["auto", *SOLVERS])
def test_solve_document_is_the_indented_json_dump(solver):
    witnesses = [None, Coloring(()), Coloring((1,)), Coloring(tuple(range(1, 41)))]
    for witness in witnesses:
        for objective in (None, 0, -7, 12):
            status = "infeasible" if witness is None else "feasible"
            outcome = SolveOutcome(status=status, witness=witness, objective=objective)
            doc = {
                "status": status,
                "witness": None if witness is None else {"color_of": list(witness.color_of)},
                "objective": objective,
                "solver_used": solver,
                "elapsed_ms": 3,
            }
            assert cli.solve_document(outcome, solver, 3) == json.dumps(doc, indent=2)


# arbitrary text, with quotes, backslashes, control and non-ASCII characters
# (lone surrogates too) drawn often
TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\n\x1f\x7f\xe9\u2028\ud800\U0001f600'),
    st.characters(exclude_categories=()),
))
PAST_DIGIT_LIMIT = 10 ** (sys.get_int_max_str_digits() or 5000)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    TEXT,
    st.none() | st.lists(st.integers(), max_size=60),
    st.none() | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64)),
    TEXT,
    st.integers(min_value=0),
)
@example("feasible", [1, 2], PAST_DIGIT_LIMIT, "oracle", 0)
@example("feasible", [1, -PAST_DIGIT_LIMIT], None, "oracle", 0)
def test_solve_document_matches_json_dumps_on_any_scalars(status, colors, objective, solver, elapsed_ms):
    witness = None if colors is None else Coloring(tuple(colors))
    outcome = SolveOutcome(status=status, witness=witness, objective=objective)
    doc = {
        "status": status,
        "witness": None if colors is None else {"color_of": colors},
        "objective": objective,
        "solver_used": solver,
        "elapsed_ms": elapsed_ms,
    }
    try:
        expected = json.dumps(doc, indent=2)
    except Exception as exc:  # an int past the digit limit
        with pytest.raises(type(exc)):
            cli.solve_document(outcome, solver, elapsed_ms)
    else:
        assert cli.solve_document(outcome, solver, elapsed_ms) == expected
