#!/usr/bin/env python3
"""End-to-end tour of the finders: grow guaranteed-size induced trees
through every vertex of assorted graphs, verify each certificate, and
compare against exact maxima where the oracle can reach.
"""

import math
import random

from induced_trees import (
    OracleBudget,
    TreeCertificate,
    find_large_tree,
    find_tree_kr_free,
    find_tree_triangle_free,
    max_induced_tree_exact,
    reroute_through_vertex,
    theorem_bound,
    verify_certificate,
)
from induced_trees.generators import (
    line_graph_balanced_tree,
    ms_layered,
    random_kr_free,
    random_triangle_free,
)


def triangle_free_tour():
    print("=" * 72)
    print("Triangle-free finder: sqrt(n) trees through every vertex")
    print("=" * 72)
    g = random_triangle_free(48, 0.12, seed=2024)
    need = math.ceil(theorem_bound(g.n, 3))
    sizes = []
    for v in range(g.n):
        cert = find_tree_triangle_free(g, v)
        assert verify_certificate(g, cert) and cert.size >= need
        sizes.append(cert.size)
    print(f"random triangle-free graph: n={g.n}, m={g.edge_count}")
    print(f"guarantee ceil(sqrt(n)) = {need}; achieved sizes min={min(sizes)}, "
          f"mean={sum(sizes)/len(sizes):.1f}, max={max(sizes)}")
    print()


def kr_free_tour():
    print("=" * 72)
    print("K_r-free finder: logarithmic trees, r = 4 and 5")
    print("=" * 72)
    for r in (4, 5):
        g = random_kr_free(150, r, 0.05, seed=7 * r)
        need = theorem_bound(g.n, r)
        worst = min(find_tree_kr_free(g, v, r).size for v in range(g.n))
        print(f"r={r}: n={g.n}, m={g.edge_count}, required {need:.2f}, worst achieved {worst}")
    g = line_graph_balanced_tree(4, 4)
    worst = min(find_tree_kr_free(g, v, 4).size for v in range(g.n))
    exact, _ = max_induced_tree_exact(g, OracleBudget(max_vertices=45, time_limit=120))
    print(f"line graph (r=4, depth=4): n={g.n}, worst certificate {worst}, exact t(G) = {exact}")
    print()


def reroute_tour():
    print("=" * 72)
    print("Rerouting: from one big tree to a tree through any vertex")
    print("=" * 72)
    rng = random.Random(99)
    shown = 0
    for _ in range(200):
        n = rng.randint(8, 14)
        g = random_kr_free(n, n + 1, rng.uniform(0.2, 0.5), rng.randrange(2 ** 32))
        size, witness = max_induced_tree_exact(g)
        base = TreeCertificate(witness, min(witness), float(size))
        certs = [reroute_through_vertex(g, base, v) for v in range(g.n)]
        assert all(verify_certificate(g, c) and c.size >= 1 + size / 2 for c in certs)
        worst = min(c.size for c in certs)
        if shown < 5:
            print(f"n={n:>2}: t(G)={size}, reroute keeps >= {1 + size/2:.1f}, worst {worst}")
            shown += 1
    print("... (soundness of all 200 checked silently)")
    print()


def dispatch_tour():
    print("=" * 72)
    print("Automatic dispatch on mixed inputs")
    print("=" * 72)
    samples = {
        "layered chain m=5": ms_layered(5),
        "random triangle-free n=60": random_triangle_free(60, 0.1, 5),
        "random K5-free n=80": random_kr_free(80, 5, 0.2, 6),
    }
    for name, g in samples.items():
        cert = find_large_tree(g)
        print(f"{name:<28} -> size {cert.size:>3} via {cert.strategy} "
              f"(bound {cert.claimed_bound:.2f}, verified {verify_certificate(g, cert)})")
    print()


if __name__ == "__main__":
    triangle_free_tour()
    kr_free_tour()
    reroute_tour()
    dispatch_tour()
