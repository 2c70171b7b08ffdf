"""Command-line front end.

Subcommands: gen (constructions to edge-list or instance JSON), find
(run a finder and emit a re-verified report), oracle (exact maxima),
verify (check a certificate file), bench (reproducible suite tables).

Exit codes: 0 success, 1 verification failure, 2 usage/parse/precondition
errors, 3 internal failure (any other exception, e.g. a violated invariant;
the traceback is logged at debug level).  Set INDUCED_TREE_LOG=debug to log
at debug level: that traceback and one summary line per bench suite.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import bench, finders, generators, oracle
from .admissible import InstanceParseError, _instance_of, _instance_payload
from .finders import FinderPreconditionError, TreeCertificate
from .graph import (
    EdgeListParseError,
    edge_list_header,
    format_edge_list,
    load_edge_list,
    parse_edge_list,
)
from .oracle import BudgetExceededError, OracleBudget

log = logging.getLogger(__name__)

# `gen` predicts the size of what it would build from the parameters alone
# and refuses (exit 2) anything above this cap, before it allocates.  A
# graph's size is its n(n-1)/2 vertex pairs: the random generators draw a
# coin for each, and they bound the edges and the neighbour-mask bits of
# every graph.  An instance's size is its item-id incidences, the ids
# listed over all items, which bound its item count.
GEN_MAX_SIZE = 10**8
_PAIRS, _INCIDENCES = "vertex pairs", "item-id incidences"


def _line_graph_vertices(r: int, depth: int) -> int:
    """Edges of the tree behind `line_graph_balanced_tree(r, depth)`, summed
    level by level and only until they pass GEN_MAX_SIZE, so a huge depth
    costs nothing; 0 when r < 4, which the generator rejects."""
    n, level = 0, r - 1
    for _ in range(depth if r >= 4 else 0):
        n += level
        if n > GEN_MAX_SIZE:
            break
        level *= r - 2
    return n


def _dyadic_incidences(k: int) -> int:
    """Sum over j <= k of 2^k items with 2^j ids each; k is clamped at 64,
    far past any cap, so the integers stay small."""
    k = min(max(k, 0), 64)
    return (1 << k) * ((2 << k) - 1)


def _pairs(n: int) -> int:
    return n * (n - 1) // 2 if n > 1 else 0


# name -> (generator, its parameters, the predicted size, its unit), in the
# order `gen` lists them.  Graphs count vertex pairs over m^2 vertices
# (ms-layered), 1 + m(m-1)/2 (ms-through-vertex), the tree's edges
# (line-graph-tree) or n (random-*).  Instances count item-id incidences,
# 2^k (2^(k+1) - 1) for dyadic and 2t for alpha-counterexample.  A size is 0
# where its size parameter is out of the generator's range, so the
# generator's own message shows.
GENERATORS = {
    "line-graph-tree": (generators.line_graph_balanced_tree, ("r", "depth"),
                        lambda r, depth: _pairs(_line_graph_vertices(r, depth)), _PAIRS),
    "ms-layered": (generators.ms_layered, ("m",), lambda m: _pairs(m * m) if m >= 2 else 0,
                   _PAIRS),
    "ms-through-vertex": (lambda m: generators.ms_through_vertex(m)[0], ("m",),
                          lambda m: _pairs(1 + m * (m - 1) // 2) if m >= 2 else 0, _PAIRS),
    "random-kr-free": (generators.random_kr_free, ("n", "r", "p", "seed"),
                       lambda n, r, p, seed: _pairs(n), _PAIRS),
    "random-triangle-free": (generators.random_triangle_free, ("n", "p", "seed"),
                             lambda n, p, seed: _pairs(n), _PAIRS),
    "alpha-counterexample": (generators.alpha_counterexample, ("t",),
                             lambda t: 2 * max(t, 0), _INCIDENCES),
    "dyadic": (generators.dyadic_bipartite, ("k",), _dyadic_incidences, _INCIDENCES),
}


def _configure_logging() -> None:
    if os.environ.get("INDUCED_TREE_LOG", "").lower() == "debug":
        logging.basicConfig(level=logging.DEBUG, format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="induced-trees",
        description="Induced trees in clique-free graphs: generators, finders, oracles, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a construction")
    p_gen.add_argument("name", choices=GENERATORS)
    p_gen.add_argument("--m", type=int)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--r", type=int)
    p_gen.add_argument("--t", type=int)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--p", type=float)
    p_gen.add_argument("--depth", type=int)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", type=Path)

    p_find = sub.add_parser("find", help="run a tree finder, emit a verified report")
    p_find.add_argument("graph", type=Path)
    p_find.add_argument("--root", type=int, required=True)
    p_find.add_argument("--r", type=int, default=3)
    p_find.add_argument("--out", type=Path)

    p_oracle = sub.add_parser(
        "oracle",
        help="exact maximum induced tree (optionally through a root), or the "
        "naive optimum of an instance JSON file",
    )
    p_oracle.add_argument("input", type=Path)
    p_oracle.add_argument("--root", type=int)
    p_oracle.add_argument("--alpha", type=float, default=0.5)
    p_oracle.add_argument("--max-n", type=int, default=20,
                          help="vertex cap for graphs, A-side cap for instances")
    p_oracle.add_argument("--time-limit", type=float, default=60.0)

    p_verify = sub.add_parser("verify", help="check a certificate file against a graph")
    p_verify.add_argument("graph", type=Path)
    p_verify.add_argument("certificate", type=Path)

    p_bench = sub.add_parser("bench", help="run a reproducible benchmark suite")
    p_bench.add_argument("suite", choices=bench.SUITES)
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--count", type=int, help="override the suite's ensemble size; "
                         "unbounded, and the run's time grows linearly with it")
    p_bench.add_argument("--out", type=Path)
    return parser


def _require(args: argparse.Namespace, names: tuple[str, ...], generator: str) -> list:
    values = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise ValueError(f"gen {generator} requires --{name}")
        values.append(value)
    return values


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_gen(args) -> int:
    fn, params, size, unit = GENERATORS[args.name]
    values = _require(args, params, args.name)
    predicted = size(*values)
    if predicted > GEN_MAX_SIZE:
        raise ValueError(
            f"gen {args.name}: predicted size at least {predicted} {unit}, above the cap "
            f"of {GEN_MAX_SIZE} (cli.GEN_MAX_SIZE)"
        )
    built = fn(*values)
    if unit == _PAIRS:
        text = format_edge_list(built)
        summary = f"{built.n} vertices, {built.edge_count} edges"
    else:
        text = built.to_json() + "\n"
        summary = f"a_count={built.a_count}, {built.b_count} B-items"
    if args.out:
        args.out.write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)
    print(f"{args.name}: {summary}", file=sys.stderr)
    if args.name == "ms-through-vertex":
        print("distinguished root vertex: 0", file=sys.stderr)
    return 0


def _cmd_find(args) -> int:
    if args.r < 3:
        raise ValueError("--r must be >= 3")
    text = args.graph.read_text(encoding="utf-8")
    # Check the header before the n masks, Θ(n²) bits, are allocated.
    n, m = edge_list_header(text)
    if n > m + 1:
        raise ValueError(
            f"header '{n} {m}': a connected graph on {n} vertices needs "
            f"at least {n - 1} edges"
        )
    g = parse_edge_list(text)
    started = time.monotonic()
    cert = finders.find_tree(g, args.root, args.r)
    required = finders.theorem_bound(g.n, args.r)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    failure = finders._report_failure(g, cert, args.root, required)
    verified = failure is None
    report = {
        "instance": str(args.graph),
        "algorithm": finders.finder_label(args.r),
        "n": g.n,
        "r": args.r,
        "root": args.root,
        "certificate": json.loads(cert.to_json()),
        "bound_required": required,
        "bound_achieved": cert.size,
        "verified": verified,
        "failure": failure,
        "wall_time_ms": elapsed_ms,
    }
    print(json.dumps(report, sort_keys=True))
    if args.out:
        args.out.write_text(cert.to_json() + "\n", encoding="utf-8")
    return 0 if verified else 1


def _cmd_oracle(args) -> int:
    text = args.input.read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        # Bound a_count before building the instance: a mask costs as many
        # bits as its highest neighbour id.
        a_count, items = _instance_payload(text)
        budget = OracleBudget(max_a_side=args.max_n, time_limit=args.time_limit)
        oracle._check_a_side(a_count, budget)
        inst = _instance_of(a_count, items)
        sel = oracle.admissible_naive(inst, alpha=args.alpha, budget=budget)
        print(
            json.dumps(
                {
                    "a_count": inst.a_count,
                    "b_count": inst.b_count,
                    "alpha": args.alpha,
                    "value": sel.value,
                    "a_chosen": sorted(sel.a_chosen),
                    "b_chosen": sorted(sel.b_chosen),
                },
                sort_keys=True,
            )
        )
        return 0
    budget = OracleBudget(max_vertices=args.max_n, time_limit=args.time_limit)
    n, m = edge_list_header(text)
    if n > budget.max_vertices:
        raise BudgetExceededError(
            f"header '{n} {m}': graph has {n} vertices, --max-n allows {budget.max_vertices}"
        )
    g = parse_edge_list(text)
    if args.root is None:
        size, witness = oracle.max_induced_tree_exact(g, budget)
    else:
        size, witness = oracle.max_tree_through_vertex_exact(g, args.root, budget)
    print(
        json.dumps(
            {"n": g.n, "root": args.root, "max_tree": size, "witness": sorted(witness)},
            sort_keys=True,
        )
    )
    return 0


def _cmd_verify(args) -> int:
    g = load_edge_list(args.graph)
    cert = TreeCertificate.from_json(args.certificate.read_text(encoding="utf-8"))
    failure = finders.certificate_failure(g, cert)
    print(json.dumps({"valid": failure is None, "reason": failure or "ok"}, sort_keys=True))
    return 0 if failure is None else 1


def _cmd_bench(args) -> int:
    rows = bench.run_suite(args.suite, args.seed, args.count)
    summary = bench.summarize(rows)
    out_base = args.out if args.out else Path(f"bench_{args.suite}")
    jsonl_path = out_base.with_suffix(".jsonl")
    csv_path = out_base.with_suffix(".csv")
    with open(jsonl_path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=bench.ROW_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(
        f"{args.suite}: {summary['rows']} rows, all_verified={summary['all_verified']}, "
        f"min_slack={summary['min_slack']}"
    )
    print(f"wrote {jsonl_path} and {csv_path}")
    return 0 if summary["all_verified"] else 1


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "find": _cmd_find,
        "oracle": _cmd_oracle,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (EdgeListParseError, InstanceParseError) as exc:
        return _usage_error(f"parse failure: {exc}")
    except FinderPreconditionError as exc:
        return _usage_error(f"precondition failure: {exc}")
    except BudgetExceededError as exc:
        return _usage_error(f"budget error: {exc}")
    except (OSError, ValueError) as exc:
        return _usage_error(str(exc))
    except Exception as exc:
        log.debug("internal failure", exc_info=True)
        print(f"error: internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
