"""What the test modules share: builders of the standard graphs, plain-set
references that never call the package, the Hypothesis strategies that
draw graphs, and one cached run per bench suite.  The module has no
`test_` prefix, so pytest collects nothing here; the test modules import
it by name."""

import functools
import math
import time
from collections.abc import Sequence
from itertools import accumulate, combinations

from hypothesis import strategies as st

from induced_trees import Graph, WeightedBipartiteInstance
from induced_trees.bench import run_suite

# kernel_graphs spreads vertices over ids below WIDTH, so masks span many
# machine words.
WIDTH = 4096


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def random_graph(n, p, rng):
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def twin_blowup(rng, max_n=18):
    """A G(k, p) with every vertex copied 1 to 3 times and the ids shuffled,
    so copies of one vertex are false twins; k and the copy counts are
    redrawn until the graph has at most max_n vertices."""
    while True:
        copies = [rng.randint(1, 3) for _ in range(rng.randint(1, 9))]
        if sum(copies) <= max_n:
            break
    p = rng.uniform(0.1, 0.9)
    ids = list(range(sum(copies)))
    rng.shuffle(ids)
    groups, start = [], 0
    for count in copies:
        groups.append(ids[start:start + count])
        start += count
    edges = [
        (u, v)
        for a, b in combinations(groups, 2) if rng.random() < p
        for u in a for v in b
    ]
    return Graph(len(ids), edges)


def random_instance(rng, max_a=10, max_b=20):
    a = rng.randint(1, max_a)
    items = []
    for _ in range(rng.randint(1, max_b)):
        degree = rng.randint(1, a)
        items.append((rng.uniform(0.0, 1.0), rng.sample(range(a), degree)))
    return WeightedBipartiteInstance(a, items)


def ceil_sqrt(x):
    root = math.isqrt(x)
    return root if root * root == x else root + 1


class CountingMasks(Sequence):
    """Adjacency masks that count how many are read."""

    def __init__(self, masks):
        self.masks = masks
        self.reads = 0

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, v):
        self.reads += 1
        return self.masks[v]


def bits_of(mask):
    return {i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"}


def neighbour_sets(g):
    return [bits_of(mask) if mask else set() for mask in g.adjacency_masks]


def set_components(nbrs, region):
    """Components of the region (a set), by BFS on sets, ordered by minimum."""
    left, comps = set(region), []
    while left:
        start = min(left)
        comp, todo = {start}, [start]
        while todo:
            for y in nbrs[todo.pop()] & left:
                if y not in comp:
                    comp.add(y)
                    todo.append(y)
        left -= comp
        comps.append(comp)
    return comps


def set_two_colouring(nbrs, n):
    """True iff a BFS 2-colouring on sets leaves no edge inside a colour."""
    colour = {}
    for s in range(n):
        if s in colour:
            continue
        colour[s], todo = 0, [s]
        while todo:
            x = todo.pop()
            for y in nbrs[x]:
                if y not in colour:
                    colour[y] = 1 - colour[x]
                    todo.append(y)
                elif colour[y] == colour[x]:
                    return False
    return True


def _holds_clique(nbrs, within, size):
    return size == 0 or any(_holds_clique(nbrs, within & nbrs[x], size - 1) for x in within)


@st.composite
def small_graphs(draw, min_n, max_n, densities=range(11), triangle_free=False):
    """A graph on min_n..max_n vertices, each pair an edge with probability
    density/10 for a density drawn from densities; with triangle_free, a
    pair that would close a triangle with the edges before it is dropped.
    One byte string holds every pair's roll, which draws far faster than
    one value per pair."""
    n = draw(st.integers(min_n, max_n))
    density = draw(st.sampled_from(densities))
    pairs = list(combinations(range(n), 2))
    rolls = draw(st.binary(min_size=len(pairs), max_size=len(pairs)))
    nbrs = [set() for _ in range(n)]
    for (u, v), roll in zip(pairs, rolls):
        if roll % 10 < density and not (triangle_free and nbrs[u] & nbrs[v]):
            nbrs[u].add(v)
            nbrs[v].add(u)
    return Graph(n, [(u, v) for u, v in pairs if v in nbrs[u]])


@st.composite
def connected_kr_free(draw, rs=(3, 4, 5), max_n=30):
    """(r, g) for r drawn from rs: a drawn edge is kept only if it closes no
    K_r, that is, if the common neighbourhood of its ends holds no K_{r-2}:
    it is empty (r = 3), holds no edge (r = 4) or no triangle (r = 5).
    Each later component is then joined to vertex 0 by its lowest vertex;
    their neighbourhoods are disjoint, so such an edge closes nothing.
    At least two pairs are drawn per vertex: Hypothesis favours short byte
    strings, so with fewer most drawn graphs would be trees."""
    r = draw(st.sampled_from(rs))
    n = draw(st.integers(2, max_n))
    nbrs = [set() for _ in range(n)]
    # Two bytes per pair, which draws far faster than a list of tuples.
    rolls = draw(st.binary(min_size=4 * n, max_size=6 * n))
    for u, v in zip(rolls[::2], rolls[1::2]):
        u, v = u % n, v % n
        if u == v or v in nbrs[u]:
            continue
        if _holds_clique(nbrs, nbrs[u] & nbrs[v], r - 2):
            continue
        nbrs[u].add(v)
        nbrs[v].add(u)
    for comp in set_components(nbrs, range(n))[1:]:
        low = min(comp)
        nbrs[0].add(low)
        nbrs[low].add(0)
    return r, Graph(n, [(u, v) for u in range(n) for v in nbrs[u] if u < v])


@st.composite
def kernel_graphs(draw):
    """(g, ids): a small_graphs graph on 1..30 vertices at density 0.3
    to 0.7, so mostly connected, with or without triangles.  Its vertices
    stay at ids 0..n-1 or move, in order, to ids spread below WIDTH (the
    other ids then isolated), so masks span many machine words.  The four
    layouts are one draw, because Hypothesis tends to draw two booleans
    alike."""
    spread, triangle_free = draw(st.sampled_from(
        [(False, False), (False, True), (True, False), (True, True)]
    ))
    g = draw(small_graphs(1, 30, range(3, 8), triangle_free))
    if not spread:
        return g, list(range(g.n))
    # Ids rise by 1 to WIDTH // 30 at a time, one byte per step, so they
    # stay below WIDTH.
    steps = draw(st.binary(min_size=g.n, max_size=g.n))
    ids = list(accumulate((1 + b * (WIDTH // 30) // 256 for b in steps), initial=-1))[1:]
    return Graph(ids[-1] + 1, [(ids[u], ids[v]) for u, v in g.edges]), ids


@functools.cache
def suite_run(suite, seed, count):
    """run_suite's rows and the wall time of that one run.  Every test
    reading a suite at one seed and count shares the run, so a slow suite
    runs once per test session; callers only read the rows."""
    started = time.monotonic()
    rows = run_suite(suite, seed, count)
    return rows, time.monotonic() - started
