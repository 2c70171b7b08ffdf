import json
import logging
import math
import operator
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graph_cases import keller_graph

import induced_trees
from induced_trees import (
    Graph,
    InternalInvariantError,
    LemmaViolationError,
    TreeCertificate,
    WeightedBipartiteInstance,
    dyadic_bipartite,
    finders,
    load_edge_list,
    save_edge_list,
)
from induced_trees import bench, cli, graph
from induced_trees.admissible import AdmissibleSelection
from induced_trees.cli import main
from induced_trees.generators import ms_layered


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_ms_layered_writes_edge_list(self, tmp_path, capsys):
        out = tmp_path / "ms4.txt"
        code, _, err = run(capsys, "gen", "ms-layered", "--m", "4", "--out", str(out))
        assert code == 0
        assert "16 vertices" in err
        assert load_edge_list(out).n == 16

    def test_dyadic_writes_instance_json(self, tmp_path, capsys):
        out = tmp_path / "dyadic.json"
        code, _, err = run(capsys, "gen", "dyadic", "--k", "2", "--out", str(out))
        assert code == 0
        assert "a_count=4" in err and "12 B-items" in err
        payload = json.loads(out.read_text())
        assert payload["a_count"] == 4 and len(payload["b_items"]) == 12

    def test_bad_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "ms-layered", "--m", "1")
        assert code == 2 and "m must be >= 2" in err

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "ms-layered")
        assert code == 2 and "--m" in err

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, "gen", "ms-layered", "--m", "2")
        assert code == 0
        assert out.startswith("4 4\n")

    def test_ms_through_vertex_names_its_root(self, capsys):
        code, _, err = run(capsys, "gen", "ms-through-vertex", "--m", "3")
        assert code == 0 and err.endswith("distinguished root vertex: 0\n")

    def test_instance_json_to_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, "gen", "dyadic", "--k", "2")
        assert code == 0
        assert WeightedBipartiteInstance.from_json(out) == dyadic_bipartite(2)


class TestGenCap:
    @pytest.mark.parametrize(
        "argv, size",
        [
            (("ms-layered", "--m", "3000"), 40499995500000),
            (("dyadic", "--k", "30"), 2305843008139952128),
            (("random-triangle-free", "--n", "1000000", "--p", "0.000004", "--seed", "1"),
             499999500000),
        ],
        ids=["ms-layered", "dyadic", "random-triangle-free"],
    )
    def test_refuses_before_allocating(self, capsys, argv, size):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 2 and out == ""
        assert f"at least {size} " in err and "internal failure" not in err

    @pytest.mark.parametrize(
        "argv, unit, size",
        [
            (("ms-layered", "--m", "4"), "vertex pairs", 120),
            (("ms-through-vertex", "--m", "5"), "vertex pairs", 55),
            (("line-graph-tree", "--r", "5", "--depth", "3"), "vertex pairs", 1326),
            (("random-triangle-free", "--n", "30", "--p", "0.1"), "vertex pairs", 435),
            (("random-kr-free", "--n", "30", "--r", "4", "--p", "0.1"), "vertex pairs", 435),
            (("dyadic", "--k", "3"), "item-id incidences", 120),
            (("alpha-counterexample", "--t", "6"), "item-id incidences", 12),
        ],
        ids=["ms-layered", "ms-through-vertex", "line-graph-tree", "random-triangle-free",
             "random-kr-free", "dyadic", "alpha-counterexample"],
    )
    def test_predicted_size_is_exact_at_a_patched_cap(
        self, tmp_path, capsys, monkeypatch, argv, unit, size
    ):
        out = tmp_path / "out"
        monkeypatch.setattr(cli, "GEN_MAX_SIZE", size - 1)
        code, _, err = run(capsys, "gen", *argv, "--out", str(out))
        assert code == 2 and not out.exists()
        assert f"at least {size} {unit}, above the cap of {size - 1}" in err
        monkeypatch.setattr(cli, "GEN_MAX_SIZE", size)
        code, _, _ = run(capsys, "gen", *argv, "--out", str(out))
        assert code == 0
        if unit == "vertex pairs":
            n = load_edge_list(out).n
            assert n * (n - 1) // 2 == size
        else:
            inst = WeightedBipartiteInstance.from_json(out.read_text())
            assert sum(m.bit_count() for m in inst.nbr_masks) == size


class TestFind:
    def test_layered_m5_verified_with_sqrt_bound(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        save_edge_list(ms_layered(5), path)
        code, out, _ = run(capsys, "find", str(path), "--root", "0", "--r", "3")
        assert code == 0
        report = json.loads(out)
        assert report["verified"] is True
        assert report["bound_required"] == pytest.approx(5.0)
        assert report["bound_achieved"] >= 5

    @pytest.mark.parametrize("r", [3, 4])
    def test_clique_input_reports_witness(self, tmp_path, capsys, r):
        # Both finders raise the one precondition message of the finder core.
        path = tmp_path / f"k{r}.txt"
        save_edge_list(Graph(r, [(i, j) for i in range(r) for j in range(i + 1, r)]), path)
        code, _, err = run(capsys, "find", str(path), "--root", "0", "--r", str(r))
        assert code == 2
        assert f"clique of size {r}: {list(range(r))}" in err

    def test_an_undecided_clique_check_exits_2(self, tmp_path, capsys, monkeypatch):
        # The Keller graph G_4 holds K_12 but no K_13, which the colouring
        # bound does not prove: the default cap gives up after 4–5 s,
        # this one after 20,000 nodes.
        monkeypatch.setattr(graph, "CLIQUE_NODE_CAP", 20_000)
        path = tmp_path / "keller4.txt"
        save_edge_list(keller_graph(4), path)
        code, out, err = run(capsys, "find", str(path), "--root", "0", "--r", "13")
        assert code == 2 and out == ""
        assert "clique of size 13 in 256 vertices" in err and "node cap of 20000" in err
        assert "Traceback" not in err and "internal failure" not in err

    def test_path_longer_than_the_recursion_limit(self, tmp_path, capsys):
        n = sys.getrecursionlimit() + 100
        path = tmp_path / "long.txt"
        save_edge_list(Graph(n, [(i, i + 1) for i in range(n - 1)]), path)
        code, out, _ = run(capsys, "find", str(path), "--root", "0")
        assert code == 0 and json.loads(out)["verified"] is True

    def test_single_vertex_graph(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        save_edge_list(Graph(1), path)
        code, out, _ = run(capsys, "find", str(path), "--root", "0", "--r", "3")
        assert code == 0
        assert json.loads(out)["bound_achieved"] == 1

    def test_root_out_of_range_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ms3.txt"
        save_edge_list(ms_layered(3), path)
        code, out, err = run(capsys, "find", str(path), "--root", "99")
        assert code == 2 and out == "" and "vertex 99 out of range" in err

    def test_parse_error_is_line_numbered(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0 0\n")
        code, _, err = run(capsys, "find", str(path), "--root", "0")
        assert code == 2 and "line 2" in err

    def test_endpoint_equal_to_n_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\n3 0\n")
        code, out, err = run(capsys, "find", str(path), "--root", "0")
        assert code == 2 and out == ""
        assert "line 3: edge (3, 0) out of range for n=3" in err

    def test_header_with_too_few_edges_is_rejected_before_parsing(
        self, tmp_path, capsys, monkeypatch
    ):
        # 6 vertices and 2 edges cannot be connected; no mask is built.
        path = tmp_path / "sparse.txt"
        path.write_text("6 2\n0 1\n1 2\n")
        monkeypatch.setattr(cli, "parse_edge_list", _never_parse)
        code, out, err = run(capsys, "find", str(path), "--root", "0")
        assert code == 2 and out == ""
        assert "header '6 2'" in err

    def test_r_below_three_is_rejected_before_the_file_is_read(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "p3.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        monkeypatch.setattr(cli, "parse_edge_list", _never_parse)
        for graph in (path, tmp_path / "missing.txt"):
            code, out, err = run(capsys, "find", str(graph), "--root", "0", "--r", "2")
            assert code == 2 and out == ""
            assert "--r must be >= 3" in err


def _never_parse(text):
    raise AssertionError("the header check should have rejected the file")


class TestReportVerdict:
    """find and bench judge a finder's certificate by one verdict: a valid
    tree is not enough, it must hold the requested root and reach the
    theorem bound."""

    @pytest.fixture
    def layered5(self, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(ms_layered(5), path)
        return str(path)

    @pytest.fixture
    def rooted_at_24(self, monkeypatch):
        """Patch the triangle-free finder to answer every root with its
        (valid) tree from vertex 24, which does not contain vertex 0."""
        real = finders.find_tree_triangle_free
        monkeypatch.setattr(finders, "find_tree_triangle_free", lambda g, v: real(g, 24))

    def test_find_rejects_a_tree_without_the_requested_root(self, capsys, layered5, rooted_at_24):
        code, out, _ = run(capsys, "find", layered5, "--root", "0")
        report = json.loads(out)
        assert 0 not in report["certificate"]["vertices"]
        assert code == 1
        assert (report["verified"], report["failure"]) == (False, "root-missing")

    def test_bench_row_rejects_a_tree_without_the_requested_root(self, rooted_at_24):
        row = bench._finder_row("triangle-free", "ms-layered(m=5)", ms_layered(5), 3, roots=[0])
        assert row["verified"] is False

    def test_find_names_an_unmet_theorem_bound(self, capsys, monkeypatch, layered5):
        def edge(g, v):
            return TreeCertificate(frozenset({v, min(g.neighbors(v))}), v, 1.0, "edge")

        monkeypatch.setattr(finders, "find_tree_triangle_free", edge)
        code, out, _ = run(capsys, "find", layered5, "--root", "0")
        report = json.loads(out)
        assert report["bound_achieved"] == 2 and report["bound_required"] == 5.0
        assert code == 1
        assert (report["verified"], report["failure"]) == (False, "bound-unmet")


class TestOracle:
    def test_k5_maximum_is_two(self, tmp_path, capsys):
        path = tmp_path / "k5.txt"
        save_edge_list(Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)]), path)
        code, out, _ = run(capsys, "oracle", str(path))
        assert code == 0 and json.loads(out)["max_tree"] == 2

    def test_layered_m4_is_seven(self, tmp_path, capsys):
        path = tmp_path / "ms4.txt"
        save_edge_list(ms_layered(4), path)
        code, out, _ = run(capsys, "oracle", str(path))
        assert code == 0 and json.loads(out)["max_tree"] == 7

    def test_default_budget_rejects_25_vertices(self, tmp_path, capsys):
        path = tmp_path / "ms5.txt"
        save_edge_list(ms_layered(5), path)
        code, _, err = run(capsys, "oracle", str(path))
        assert code == 2 and "budget" in err

    def test_header_over_max_n_is_rejected_before_parsing(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "wide.txt"
        path.write_text("21 1\n0 1\n")
        monkeypatch.setattr(cli, "parse_edge_list", _never_parse)
        code, out, err = run(capsys, "oracle", str(path))
        assert code == 2 and out == ""
        assert "header '21 1'" in err and "--max-n allows 20" in err

    def test_raised_budget_allows_it(self, tmp_path, capsys):
        path = tmp_path / "ms5.txt"
        save_edge_list(ms_layered(5), path)
        code, out, _ = run(capsys, "oracle", str(path), "--max-n", "25")
        assert code == 0 and json.loads(out)["max_tree"] == 9

    @pytest.mark.parametrize("limit", ["nan", "inf"])
    @pytest.mark.parametrize("kind", ["graph", "instance"])
    def test_non_finite_time_limit_is_usage_error(self, tmp_path, capsys, kind, limit):
        # A NaN deadline never fires, so the search would run unbounded.
        path = tmp_path / "input"
        if kind == "graph":
            save_edge_list(ms_layered(4), path)
        else:
            run(capsys, "gen", "dyadic", "--k", "2", "--out", str(path))
        code, out, err = run(capsys, "oracle", str(path), "--time-limit", limit)
        assert code == 2 and out == ""
        assert "time_limit must be finite" in err

    def test_instance_json_input_runs_naive_optimizer(self, tmp_path, capsys):
        path = tmp_path / "dyadic.json"
        run(capsys, "gen", "dyadic", "--k", "2", "--out", str(path))
        code, out, _ = run(capsys, "oracle", str(path), "--alpha", "1.0")
        assert code == 0
        report = json.loads(out)
        assert report["value"] == 7.0 and report["alpha"] == 1.0

    def test_boolean_a_count_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text('{"a_count": true, "b_items": [{"w": 1, "nbrs": [0]}]}')
        code, out, err = run(capsys, "oracle", str(path))
        assert code == 2 and out == "" and "a_count" in err

    def test_integer_weight_beyond_the_float_range_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "huge_w.json"
        path.write_text('{"a_count": 1, "b_items": [{"w": 1%s, "nbrs": [0]}]}' % ("0" * 400))
        code, out, err = run(capsys, "oracle", str(path))
        assert code == 2 and out == "" and "b_items[0]: weight must be" in err

    def test_weights_whose_total_overflows_are_usage_error(self, tmp_path, capsys):
        path = tmp_path / "big_total.json"
        path.write_text(
            '{"a_count": 1, "b_items": [{"w": 1e308, "nbrs": [0]}, {"w": 1e308, "nbrs": [0]}]}'
        )
        code, out, err = run(capsys, "oracle", str(path), "--alpha", "1.0")
        assert code == 2 and out == "" and "total weight overflows" in err
        assert "internal failure" not in err

    def test_huge_a_count_is_rejected_by_the_budget(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"a_count": 2000000, "b_items": [{"w": 1, "nbrs": [0]}]}')
        code, _, err = run(capsys, "oracle", str(path))
        assert code == 2 and "budget" in err

    def test_huge_neighbour_id_is_rejected_before_its_mask_is_built(self, tmp_path, capsys):
        # A mask costs as many bits as its highest id, 12.5 MB here.
        path = tmp_path / "huge_id.json"
        path.write_text('{"a_count": 100000000, "b_items": [{"w": 1, "nbrs": [99999999]}]}')
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "oracle", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert "budget error: a_count 100000000 exceeds budget 20" in err
        assert peak < 1 << 20


class TestVerify:
    def test_finder_output_passes(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        save_edge_list(ms_layered(4), gpath)
        cpath = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "find", str(gpath), "--root", "0", "--r", "3", "--out", str(cpath)
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", str(gpath), str(cpath))
        assert code == 0 and json.loads(out)["reason"] == "ok"

    def test_disconnected_header_still_parses(self, tmp_path, capsys):
        # Only find needs a connected graph; verify reads the file as it is.
        gpath = tmp_path / "sparse.txt"
        gpath.write_text("6 2\n0 1\n1 2\n")
        cpath = tmp_path / "cert.json"
        cpath.write_text(TreeCertificate(frozenset({0, 1, 2}), 0, 1.0).to_json())
        code, out, _ = run(capsys, "verify", str(gpath), str(cpath))
        assert code == 0 and json.loads(out)["reason"] == "ok"

    def test_extra_vertex_breaks_tree(self, tmp_path, capsys):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        gpath = tmp_path / "c4.txt"
        save_edge_list(g, gpath)
        cpath = tmp_path / "cert.json"
        cpath.write_text(TreeCertificate(frozenset({0, 1, 2, 3}), 0, 2.0).to_json())
        code, out, _ = run(capsys, "verify", str(gpath), str(cpath))
        assert code == 1 and json.loads(out)["reason"] == "not-induced-tree"

    def test_tampered_bound(self, tmp_path, capsys):
        g = Graph(3, [(0, 1), (1, 2)])
        gpath = tmp_path / "p3.txt"
        save_edge_list(g, gpath)
        cpath = tmp_path / "cert.json"
        cpath.write_text(TreeCertificate(frozenset({0, 1}), 0, 99.0).to_json())
        code, out, _ = run(capsys, "verify", str(gpath), str(cpath))
        assert code == 1 and json.loads(out)["reason"] == "bound-unmet"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("vertices", [True, 0]),
            ("root", True),
            ("claimed_bound", "nan"),
            ("vertices", ["a"]),
            ("vertices", 7),
            ("strategy", 5),
        ],
    )
    def test_malformed_certificate_is_usage_error(self, tmp_path, capsys, field, value):
        gpath = tmp_path / "p3.txt"
        save_edge_list(Graph(3, [(0, 1), (1, 2)]), gpath)
        payload = {"root": 0, "vertices": [0, 1], "claimed_bound": 1.0, "strategy": ""}
        payload[field] = value
        cpath = tmp_path / "cert.json"
        cpath.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", str(gpath), str(cpath))
        assert code == 2 and out == "" and f"'{field}'" in err

    @pytest.mark.parametrize("vertices", [[-1], [9], [10**30], []])
    def test_hostile_vertices_are_not_a_tree(self, tmp_path, capsys, vertices):
        gpath = tmp_path / "ms3.txt"
        save_edge_list(ms_layered(3), gpath)
        cpath = tmp_path / "cert.json"
        cpath.write_text(json.dumps({"root": 0, "vertices": vertices, "claimed_bound": 1.0}))
        code, out, _ = run(capsys, "verify", str(gpath), str(cpath))
        assert code == 1 and json.loads(out) == {"reason": "not-induced-tree", "valid": False}

    @pytest.mark.parametrize(
        "payload, message", [([], "must be a JSON object"), ({"root": 0}, "missing 'vertices'")]
    )
    def test_certificate_shape_is_usage_error(self, tmp_path, capsys, payload, message):
        gpath = tmp_path / "ms3.txt"
        save_edge_list(ms_layered(3), gpath)
        cpath = tmp_path / "cert.json"
        cpath.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", str(gpath), str(cpath))
        assert code == 2 and out == "" and message in err

    def test_oversized_header_is_a_parse_error(self, tmp_path, capsys):
        # CPython refuses a list of 2**64 masks before allocating any.
        gpath = tmp_path / "huge.txt"
        gpath.write_text(f"{2**64} 0\n")
        cpath = tmp_path / "cert.json"
        cpath.write_text(TreeCertificate(frozenset({0}), 0, 1.0).to_json())
        code, out, err = run(capsys, "verify", str(gpath), str(cpath))
        assert code == 2 and out == ""
        assert f"parse failure: line 1: vertex count {2**64} is too large" in err

    def test_truncated_certificate_is_usage_error(self, tmp_path, capsys):
        gpath = tmp_path / "p3.txt"
        save_edge_list(Graph(3, [(0, 1), (1, 2)]), gpath)
        cpath = tmp_path / "cert.json"
        cpath.write_text(TreeCertificate(frozenset({0, 1}), 0, 1.0).to_json()[:-7])
        code, out, err = run(capsys, "verify", str(gpath), str(cpath))
        assert code == 2 and out == "" and "invalid certificate JSON" in err

    @pytest.mark.parametrize("token", ["\u0662", "+2", "0_2"])
    def test_ids_must_be_ascii_decimals(self, tmp_path, capsys, token):
        gpath = tmp_path / "p3.txt"
        gpath.write_text(f"3 2\n0 1\n1 {token}\n", encoding="utf-8")
        cpath = tmp_path / "cert.json"
        cpath.write_text(TreeCertificate(frozenset({0, 1, 2}), 0, 1.0).to_json())
        for argv in (["find", str(gpath), "--root", "0"], ["verify", str(gpath), str(cpath)]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "line 3: edge endpoints must be integers" in err


@pytest.mark.parametrize(
    "command, prefix",
    [("verify", ""), ("oracle", '{"a_count": 1, "b_items": ')],
    ids=["certificate", "instance"],
)
def test_deeply_nested_json_is_usage_error(tmp_path, capsys, command, prefix):
    # json.loads raises RecursionError on this; it is a parse error, not exit 3.
    gpath = tmp_path / "ms3.txt"
    save_edge_list(ms_layered(3), gpath)
    jpath = tmp_path / "deep.json"
    jpath.write_text(prefix + "[" * 200_000)
    argv = [command, str(gpath), str(jpath)] if command == "verify" else [command, str(jpath)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "invalid" in err
    assert "internal failure" not in err


FUZZ_WEIGHTS = [0.0, 5e-324, 1.0, 1e200, 1e308, sys.float_info.max]


@st.composite
def instance_texts(draw):
    a_count = draw(st.integers(1, 6))
    weight = st.one_of(st.sampled_from(FUZZ_WEIGHTS), st.floats(0.0, 1e308))
    nbrs = st.lists(st.integers(0, a_count - 1), min_size=1, max_size=a_count)
    items = draw(st.lists(st.builds(lambda w, n: {"w": w, "nbrs": n}, weight, nbrs), max_size=6))
    return json.dumps({"a_count": a_count, "b_items": items})


@settings(max_examples=75, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(instance_texts(), st.sampled_from(["1e-300", "0.25", "0.5", "1.0"]))
def test_oracle_on_an_instance_never_exits_3(tmp_path, capsys, text, alpha):
    path = tmp_path / "instance.json"
    path.write_text(text)
    code, out, err = run(capsys, "oracle", str(path), "--alpha", alpha)
    assert code in (0, 2), err
    if code == 0:
        assert isinstance(json.loads(out), dict)


# Small headers, or ones CPython refuses outright; never a count in between,
# which would allocate its masks.
VERIFY_COUNTS = st.one_of(st.integers(0, 12), st.integers(2**63, 2**70))
SWAP_VALUES = [None, True, "0", 1.5, [], {}, [[0]], float("nan"), 10**30]


@st.composite
def verify_files(draw):
    """(edge-list text, certificate text): distinct edges under a small or
    a huge header, then maybe one line dropped, repeated or garbled; a
    certificate that is valid, mutated, truncated or type-swapped."""
    n = draw(VERIFY_COUNTS)
    k = min(n, 12)
    pair = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(lambda e: e[0] < e[1])
    edges = draw(st.lists(pair, max_size=12, unique=True)) if k > 1 else []
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    at = draw(st.integers(0, len(lines) - 1))
    mutation = draw(st.sampled_from(["none", "none", "none", "drop", "repeat", "garble"]))
    if mutation == "drop":
        del lines[at]
    elif mutation == "repeat":
        lines.insert(at, lines[at])
    elif mutation == "garble":
        lines[at] = draw(st.sampled_from(["", "x", "1", "1 1", "-1 0", "1 2 3", "\u0663 1"]))
    v = draw(st.integers(0, max(k - 1, 0)))
    tree = [v] if not edges or draw(st.booleans()) else list(edges[0])
    cert = {"root": tree[0], "vertices": tree, "claimed_bound": 1.0, "strategy": "drawn"}
    kind = draw(st.sampled_from(["valid", "valid", "mutated", "truncated", "swapped"]))
    if kind == "mutated":
        ids = st.integers(-1, k)
        cert["vertices"] = draw(st.lists(ids, max_size=6))
        cert["root"] = draw(ids)
        cert["claimed_bound"] = draw(st.floats(0.0, 8.0))
    elif kind == "swapped":
        cert[draw(st.sampled_from(sorted(cert)))] = draw(st.sampled_from(SWAP_VALUES))
    text = json.dumps(cert)
    if kind == "truncated":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return "\n".join(lines) + "\n", text


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(verify_files())
def test_verify_exits_0_1_or_2(tmp_path, capsys, files):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "cert.json"
    gpath.write_text(files[0], encoding="utf-8")
    cpath.write_text(files[1], encoding="utf-8")
    code, out, err = run(capsys, "verify", str(gpath), str(cpath))
    assert code in (0, 1, 2), err
    assert "internal failure" not in err
    if code == 2:
        assert out == ""
    else:
        assert isinstance(json.loads(out), dict)


class TestInternalFailure:
    @pytest.fixture
    def finder_raising(self, tmp_path, monkeypatch):
        """Path of a small graph whose finder raises the given exception."""

        def make(exc):
            def broken(g, v):
                raise exc

            monkeypatch.setattr(finders, "find_tree_triangle_free", broken)
            path = tmp_path / "g.txt"
            save_edge_list(ms_layered(3), path)
            return str(path)

        return make

    @pytest.mark.parametrize(
        "exc",
        [
            RecursionError("maximum recursion depth exceeded"),
            InternalInvariantError("boom", {}),
            LemmaViolationError("exhaustive fallback reached 1.0 < sqrt(total) = 2.0"),
        ],
    )
    def test_unexpected_exception_exits_3(self, capsys, finder_raising, exc):
        code, out, err = run(capsys, "find", finder_raising(exc), "--root", "0")
        assert code == 3 and out == ""
        assert err == f"error: internal failure: {type(exc).__name__}: {exc}\n"

    def test_base_exceptions_are_not_caught(self, finder_raising):
        with pytest.raises(KeyboardInterrupt):
            main(["find", finder_raising(KeyboardInterrupt()), "--root", "0"])

    def test_debug_log_holds_the_traceback(self, tmp_path):
        # A fresh interpreter: pytest's log capture puts handlers on the root
        # logger, so basicConfig would configure nothing in this process.
        path = tmp_path / "g.txt"
        save_edge_list(ms_layered(3), path)
        script = (
            "import sys\n"
            "from induced_trees import cli, finders\n"
            "def broken(g, v):\n"
            "    raise RuntimeError('boom')\n"
            "finders.find_tree_triangle_free = broken\n"
            f"sys.exit(cli.main(['find', {str(path)!r}, '--root', '0']))\n"
        )
        src = str(Path(induced_trees.__file__).parents[1])
        env = {**os.environ, "INDUCED_TREE_LOG": "debug", "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert "DEBUG induced_trees.cli: internal failure\nTraceback" in proc.stderr
        assert proc.stderr.endswith("RuntimeError: boom\nerror: internal failure: RuntimeError: boom\n")

    def test_unreadable_graph_path_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "find", str(tmp_path), "--root", "0")
        assert code == 2 and "internal failure" not in err


class TestBench:
    def test_small_admissible_suite(self, tmp_path, capsys):
        out = tmp_path / "table"
        code, stdout, _ = run(
            capsys, "bench", "admissible", "--seed", "1", "--count", "10", "--out", str(out)
        )
        assert code == 0
        assert "all_verified=True" in stdout
        assert (tmp_path / "table.jsonl").exists()
        assert (tmp_path / "table.csv").exists()

    def test_reports_deterministic_up_to_timing(self, tmp_path, capsys):
        rows = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run(
                capsys, "bench", "claim", "--seed", "7", "--count", "5", "--out", str(out)
            )
            assert code == 0
            lines = (tmp_path / f"{name}.jsonl").read_text().splitlines()
            stripped = []
            for line in lines:
                row = json.loads(line)
                row.pop("wall_time_ms", None)
                stripped.append(row)
            rows.append(stripped)
        assert rows[0] == rows[1]

    def test_inadmissible_selection_fails_the_suite(self, tmp_path, capsys, monkeypatch):
        def inflated(inst):
            return AdmissibleSelection(
                frozenset(range(inst.a_count)), frozenset(range(inst.b_count)), 1e9
            )

        monkeypatch.setattr(bench, "select_weighted", inflated)
        code, stdout, _ = run(
            capsys, "bench", "admissible", "--count", "10", "--out", str(tmp_path / "adm")
        )
        assert code == 1 and "all_verified=False" in stdout

    def test_met_bound_has_positive_zero_slack(self):
        # The largest induced tree of ms_layered(3) has exactly 2m - 1 = 5 vertices.
        g = ms_layered(3)
        row = bench._row("triangle-free", "ms-layered(m=3)", "oracle-max-tree<=2m-1", g.n, 3,
                         bench._oracle_check, g, 5, operator.le, relation="<=")
        assert row["bound_achieved"] == row["bound_required"] and row["verified"]
        min_slack = bench.summarize([row])["min_slack"]
        assert min_slack == 0.0 and math.copysign(1, min_slack) == 1

    def test_equality_slack_is_zero_only_when_met(self):
        # ms_layered(3) has t(G) = 2m - 1 = 5; a requirement of 6 misses by 1.
        g = ms_layered(3)
        rows = [bench._row("tightness", "ms-layered(m=3)", "oracle-max-tree=2m-1", g.n, 3,
                           bench._oracle_check, g, bound, operator.eq, relation="==")
                for bound in (5, 6)]
        assert [row["verified"] for row in rows] == [True, False]
        met = bench.summarize(rows[:1])["min_slack"]
        assert met == 0.0 and math.copysign(1, met) == 1
        assert bench.summarize(rows)["min_slack"] == -1.0

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, count):
        # A count of 0 used to drop every ensemble row and exit 0.
        code, out, err = run(
            capsys, "bench", "claim", "--count", count, "--out", str(tmp_path / "claim")
        )
        assert code == 2 and out == "" and "count must be >= 1" in err
        assert list(tmp_path.iterdir()) == []

    def test_suite_summary_is_logged_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="induced_trees.bench"):
            rows = bench.run_suite("claim", 1, 2)
        [record] = [r for r in caplog.records if r.name == "induced_trees.bench"]
        assert record.levelno == logging.DEBUG
        assert record.getMessage().startswith(f"suite claim: {len(rows)} rows in ")

    def test_run_suite_rejects_an_unknown_name(self):
        message = "unknown suite 'nope'; known: triangle-free, kr-free, admissible, claim, tightness"
        with pytest.raises(ValueError, match=re.escape(message)):
            bench.run_suite("nope", 1)

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "nope"])
        assert excinfo.value.code == 2
