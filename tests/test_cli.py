import json
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import induced_trees
from induced_trees import (
    Graph,
    InternalInvariantError,
    TreeCertificate,
    WeightedBipartiteInstance,
    dyadic_bipartite,
    finders,
    load_edge_list,
    save_edge_list,
)
from induced_trees import bench, cli
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
        [RecursionError("maximum recursion depth exceeded"), InternalInvariantError("boom", {})],
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
                         bench._oracle_below, g, 5, relation="<=")
        assert row["bound_achieved"] == row["bound_required"] and row["verified"]
        min_slack = bench.summarize([row])["min_slack"]
        assert min_slack == 0.0 and math.copysign(1, min_slack) == 1

    def test_equality_slack_is_zero_only_when_met(self):
        # ms_layered(3) has t(G) = 2m - 1 = 5; a requirement of 6 misses by 1.
        g = ms_layered(3)
        rows = [bench._row("tightness", "ms-layered(m=3)", "oracle-max-tree=2m-1", g.n, 3,
                           bench._oracle_equals, g, bound, relation="==") for bound in (5, 6)]
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
