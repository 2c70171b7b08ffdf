#!/usr/bin/env python3
"""Walk through the extremal constructions and compare exact maxima
against the theoretical envelopes.

Three families:
  * layered complete-bipartite chains on m^2 vertices, where no induced
    tree beats 2m - 1 while every finder certificate reaches sqrt(n);
  * the through-vertex variant, where trees containing the distinguished
    vertex top out at m = sqrt(2n);
  * line graphs of balanced trees, the K_r-free family whose induced
    trees are the underlying tree's induced paths.
"""

import math

from induced_trees import (
    OracleBudget,
    find_tree_triangle_free,
    has_clique,
    is_triangle_free,
    max_induced_tree_exact,
    max_tree_through_vertex_exact,
    theorem_bound,
)
from induced_trees.generators import (
    line_graph_balanced_tree,
    ms_layered,
    ms_through_vertex,
)


def layered_family():
    print("=" * 72)
    print("Layered chains: n = m^2 vertices, exact t(G) vs the 2m-1 ceiling")
    print("=" * 72)
    print(f"{'m':>3} {'n':>5} {'edges':>6} {'t(G)':>5} {'2m-1':>5} {'sqrt(n)':>8} {'finder worst':>13}")
    budget = OracleBudget(max_vertices=25, time_limit=120.0)
    for m in range(2, 6):
        g = ms_layered(m)
        assert is_triangle_free(g)
        exact, _ = max_induced_tree_exact(g, budget)
        worst = min(find_tree_triangle_free(g, v).size for v in range(g.n))
        print(
            f"{m:>3} {g.n:>5} {g.edge_count:>6} {exact:>5} {2 * m - 1:>5}"
            f" {theorem_bound(g.n, 3):>8.2f} {worst:>13}"
        )
    print()
    print("The ceiling is tight: every exact maximum lands on 2m-1 exactly,")
    print("so the sqrt(n) guarantee is off by a factor of ~2 on this family.")
    print()


def through_vertex_family():
    print("=" * 72)
    print("Through-vertex chains: trees containing v cap at m = sqrt(2n)")
    print("=" * 72)
    print(f"{'m':>3} {'n':>5} {'max through v':>14} {'global t(G)':>12}")
    for m in range(2, 6):
        g, v = ms_through_vertex(m)
        through, _ = max_tree_through_vertex_exact(g, v)
        overall, _ = max_induced_tree_exact(g)
        print(f"{m:>3} {g.n:>5} {through:>14} {overall:>12}")
    print()
    print("Forcing the tree through v costs real headroom: the global")
    print("maximum keeps growing while the through-v maximum stays at m.")
    print()


def line_graph_family():
    print("=" * 72)
    print("Line graphs of balanced trees: the K_r-free logarithmic family")
    print("=" * 72)
    print(f"{'r':>3} {'depth':>6} {'n':>5} {'t(G)':>5} {'2*depth':>8} {'log ceiling':>12}")
    for r, depth in [(4, 1), (4, 2), (4, 3), (4, 4), (5, 2), (5, 3)]:
        g = line_graph_balanced_tree(r, depth)
        assert not has_clique(g, r)
        budget = OracleBudget(max_vertices=64, time_limit=120.0)
        exact, _ = max_induced_tree_exact(g, budget)
        ceiling = 2 * math.log(g.n - 1) / math.log(r - 2) + 2 if g.n > 2 else float("nan")
        print(f"{r:>3} {depth:>6} {g.n:>5} {exact:>5} {2 * depth:>8} {ceiling:>12.2f}")
    print()
    print("Induced trees here are induced paths of the underlying tree, so")
    print("the exact maximum is twice the depth: logarithmic in n.")
    print()


if __name__ == "__main__":
    layered_family()
    through_vertex_family()
    line_graph_family()
