import math
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_cases import (
    complete_bipartite,
    complete_graph,
    connected_kr_free,
    cycle_graph,
    path_graph,
)
from induced_trees import (
    FinderPreconditionError,
    Graph,
    OracleBudget,
    TreeCertificate,
    WeightedBipartiteInstance,
    certificate_failure,
    find_large_tree,
    find_tree,
    find_tree_kr_free,
    find_tree_triangle_free,
    finders,
    graph,
    max_induced_tree_exact,
    reroute_through_vertex,
    shortest_path,
    theorem_bound,
    verify_certificate,
)
from induced_trees.generators import (
    line_graph_balanced_tree,
    ms_layered,
    random_kr_free,
    random_triangle_free,
)


class TestTriangleFreeFinder:
    def test_single_vertex(self):
        cert = find_tree_triangle_free(Graph(1), 0)
        assert cert.vertices == frozenset({0}) and cert.size >= cert.claimed_bound

    def test_star_from_center_takes_everything(self):
        g = complete_bipartite(1, 8)
        cert = find_tree_triangle_free(g, 0)
        assert cert.vertices == frozenset(range(9))
        assert cert.size >= math.sqrt(9)

    def test_layered_m4_certificate_meets_bound_with_headroom(self):
        g = ms_layered(4)
        exact, _ = max_induced_tree_exact(g)
        assert exact == 7  # == 2m - 1
        for v in range(g.n):
            cert = find_tree_triangle_free(g, v)
            assert verify_certificate(g, cert)
            assert cert.root == v and v in cert.vertices
            assert cert.size >= 4 and cert.size <= exact

    def test_disconnected_rejected_with_witness(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(FinderPreconditionError) as excinfo:
            find_tree_triangle_free(g, 0)
        assert excinfo.value.witness == frozenset({0, 1})

    def test_triangle_rejected_with_witness(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        with pytest.raises(FinderPreconditionError) as excinfo:
            find_tree_triangle_free(g, 3)
        assert excinfo.value.witness == (0, 1, 2)


class TestKrFreeFinder:
    def test_star_with_r4(self):
        g = complete_bipartite(1, 5)
        cert = find_tree_kr_free(g, 0, 4)
        assert verify_certificate(g, cert)
        assert cert.size >= math.log(6) / (4 * math.log(4))

    def test_line_graph_depth_four(self):
        g = line_graph_balanced_tree(4, 4)
        exact, _ = max_induced_tree_exact(g, OracleBudget(max_vertices=45, time_limit=120))
        assert exact == 8  # longest induced path in the depth-4 tree
        for v in (0, g.n // 2, g.n - 1):
            cert = find_tree_kr_free(g, v, 4)
            assert verify_certificate(g, cert)
            assert cert.size >= math.log(g.n) / (4 * math.log(4))
            assert cert.size <= exact

    def test_tiny_graphs_trivially_satisfied(self):
        for g in (path_graph(2), path_graph(3), cycle_graph(3)):
            cert = find_tree_kr_free(g, 0, 4)
            assert verify_certificate(g, cert)

    def test_clique_rejected_with_witness(self):
        with pytest.raises(FinderPreconditionError) as excinfo:
            find_tree_kr_free(complete_graph(4), 0, 4)
        assert excinfo.value.witness == frozenset({0, 1, 2, 3})

    def test_r_below_four_rejected(self):
        with pytest.raises(ValueError):
            find_tree_kr_free(path_graph(3), 0, 3)

    def test_ramsey_star_holds_the_bound_above_r_to_the_fourth(self):
        # n - 1 > 4^4, so the star must bring ceil(bound) = 2 independent
        # neighbours, not 1: a request one short gives 2 vertices.
        g = random_kr_free(300, 4, 0.02, 1)
        cert = find_tree_kr_free(g, 0, 4)
        assert cert.strategy == "ramsey-star"
        assert round(cert.claimed_bound, 3) == 2.028
        assert cert.size == 3 and verify_certificate(g, cert)

    def test_r_is_checked_before_the_graph(self):
        # As in find_tree, a call wrong in two ways reports r first.
        with pytest.raises(ValueError, match="r must be >= 4"):
            find_tree_kr_free(Graph(0), 5, 3)


@pytest.mark.parametrize("shape, r", [("cycle", 3), ("path", 3), ("path", 4)])
def test_chain_longer_than_the_recursion_limit(shape, r):
    # The finders keep pending subproblems on a list, not on the call
    # stack, so a chain of any length decomposes at the default limit.
    n = max(20000, sys.getrecursionlimit() + 100)
    g = cycle_graph(n) if shape == "cycle" else path_graph(n)
    cert = find_tree(g, 0, r)
    assert verify_certificate(g, cert)
    assert cert.size >= theorem_bound(n, r) - 1e-9


class TestReroute:
    def test_vertex_already_in_tree(self):
        g = path_graph(5)
        t = TreeCertificate(frozenset({2, 3, 4}), 2, 3.0)
        cert = reroute_through_vertex(g, t, 3)
        assert cert.vertices == t.vertices and cert.root == 3

    def test_path_graph_reroute(self):
        g = path_graph(5)
        t = TreeCertificate(frozenset({2, 3, 4}), 2, 3.0)
        cert = reroute_through_vertex(g, t, 0)
        assert verify_certificate(g, cert)
        assert 0 in cert.vertices
        assert cert.size >= 1 + 3 / 2

    def test_c5_against_a_p4(self):
        # frozen by hand-tracing: path [4, 0], attachments {0, 3}, classes
        # {0,1} vs {2,3}, tie broken to the first attachment's side
        g = cycle_graph(5)
        t = TreeCertificate(frozenset({0, 1, 2, 3}), 0, 4.0)
        cert = reroute_through_vertex(g, t, 4)
        assert cert.vertices == frozenset({0, 1, 4})
        assert verify_certificate(g, cert)

    def test_singleton_tree_grows_an_edge(self):
        g = path_graph(3)
        t = TreeCertificate(frozenset({2}), 2, 1.0)
        cert = reroute_through_vertex(g, t, 2)
        assert cert.vertices == frozenset({1, 2})

    def test_singleton_graph(self):
        g = Graph(1)
        t = TreeCertificate(frozenset({0}), 0, 1.0)
        cert = reroute_through_vertex(g, t, 0)
        assert cert.vertices == frozenset({0}) and cert.claimed_bound == 1.0

    def test_invalid_input_tree_rejected(self):
        g = complete_graph(3)
        bad = TreeCertificate(frozenset({0, 1, 2}), 0, 3.0)
        with pytest.raises(FinderPreconditionError, match="not-induced-tree"):
            reroute_through_vertex(g, bad, 0)

    @pytest.mark.parametrize("tree", [{2}, {0, 1}])
    def test_disconnected_graph_rejected(self, tree):
        g = Graph(3, [(0, 1)])
        t = TreeCertificate(frozenset(tree), min(tree), 1.0)
        with pytest.raises(FinderPreconditionError, match="disconnected") as info:
            reroute_through_vertex(g, t, 2)
        assert info.value.witness == frozenset({0, 1})


def reference_reroute(g, t, v):
    """The rerouting rule of reroute_through_vertex's docstring, on sets:
    the shortest path from v into t that shortest_path returns, t split by
    nearest attachment point (ties to the smallest index), the subtree
    quotient 2-coloured from subtree 0, and the heavier class (ties to
    subtree 0's) joined to the path without its end."""
    nbrs = [set(g.neighbors(x)) for x in range(g.n)]
    path = shortest_path(g, v, t)
    attach = sorted(nbrs[path[-2]] & t)
    dists = []
    for a in attach:
        dist, todo = {a: 0}, [a]
        for x in todo:
            for y in sorted(nbrs[x] & t):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    todo.append(y)
        dists.append(dist)
    label = {x: min(range(len(attach)), key=lambda i: (dists[i][x], i)) for x in t}
    quotient = [set() for _ in attach]
    for x in t:
        for y in nbrs[x] & t:
            if label[x] != label[y]:
                quotient[label[x]].add(label[y])
    colour, todo = {0: 0}, [0]
    for i in todo:
        for j in quotient[i]:
            assert colour.setdefault(j, 1 - colour[i]) != colour[i]
            if j not in todo:
                todo.append(j)
    sides = [{x for x in t if colour[label[x]] == c} for c in (0, 1)]
    pick = sides[0] if len(sides[0]) >= len(sides[1]) else sides[1]
    return set(path[:-1]) | pick


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 80), st.floats(0.5, 6.0), st.integers(0, 2 ** 32 - 1), st.data())
def test_reroute_equals_the_set_reference(n, degree, seed, data):
    # Finder certificates on graphs up to 80 vertices, rerouted to every
    # vertex, against the rule written out on sets.
    g = random_triangle_free(n, min(1.0, degree / n), seed)
    base = find_tree_triangle_free(g, data.draw(st.integers(0, n - 1)))
    for v in range(n):
        cert = reroute_through_vertex(g, base, v)
        if v in base.vertices:
            assert cert.vertices == base.vertices
            continue
        assert cert.vertices == reference_reroute(g, set(base.vertices), v)
        assert (cert.root, cert.strategy) == (v, "reroute")
        assert cert.claimed_bound == 1 + base.size / 2
        assert verify_certificate(g, cert)


class TestVerifyCertificate:
    def test_finder_output_verifies(self):
        g = ms_layered(3)
        cert = find_tree_triangle_free(g, 0)
        assert certificate_failure(g, cert) is None

    def test_chord_fails_as_not_induced_tree(self):
        g = cycle_graph(4)
        cert = TreeCertificate(frozenset({0, 1, 2, 3}), 0, 2.0)
        assert certificate_failure(g, cert) == "not-induced-tree"

    def test_missing_root(self):
        g = path_graph(4)
        cert = TreeCertificate(frozenset({0, 1}), 3, 1.0)
        assert certificate_failure(g, cert) == "root-missing"

    def test_inflated_bound(self):
        g = path_graph(4)
        cert = TreeCertificate(frozenset({0, 1}), 0, 3.0)
        assert certificate_failure(g, cert) == "bound-unmet"

    @pytest.mark.parametrize(
        "vertices, root, required, failure",
        [
            ({0, 1, 2, 3}, 9, 9.0, "not-induced-tree"),  # a cycle, before the root
            ({0, 1}, 3, 9.0, "root-missing"),  # a tree elsewhere before the bound
            ({0, 1}, 0, 2.5, "bound-unmet"),
            ({0, 1}, 0, 2.0, None),
        ],
    )
    def test_report_verdict_order(self, vertices, root, required, failure):
        """The report verdict checks the certificate, then the requested
        root, then the required size."""
        cert = TreeCertificate(frozenset(vertices), 0, 1.0)
        assert finders._report_failure(cycle_graph(4), cert, root, required) == failure

    def test_size_at_the_slack_edge_passes(self):
        # (3 + BOUND_EPS) - BOUND_EPS is 3.0 exactly, so P_3 itself meets a
        # claimed and a required bound of 3 + BOUND_EPS.
        bound = 3 + finders.BOUND_EPS
        assert bound - finders.BOUND_EPS == 3.0
        cert = TreeCertificate(frozenset({0, 1, 2}), 0, bound)
        assert certificate_failure(path_graph(3), cert) is None
        assert finders._report_failure(path_graph(3), cert, 0, bound) is None

    def test_json_round_trip(self):
        cert = TreeCertificate(frozenset({2, 0, 5}), 2, 2.5, "star")
        again = TreeCertificate.from_json(cert.to_json())
        assert again == cert

    @settings(max_examples=200, deadline=None)
    @given(
        st.builds(
            TreeCertificate,
            st.frozensets(st.integers(0, 2 ** 70), max_size=30),
            st.integers(0, 2 ** 70),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=20),
        )
    )
    @example(TreeCertificate(frozenset({0}), 0, sys.float_info.max, ""))
    def test_json_round_trip_property(self, cert):
        assert TreeCertificate.from_json(cert.to_json()) == cert


class TestTheoremBoundAndDispatch:
    def test_bound_values(self):
        assert theorem_bound(49, 3) == 7.0
        assert theorem_bound(1, 3) == 1.0
        assert theorem_bound(4 ** 8, 4) == pytest.approx(2.0)
        assert theorem_bound(1, 5) == 0.0

    def test_bound_rejects_small_r(self):
        with pytest.raises(ValueError):
            theorem_bound(10, 2)

    def test_claimed_bound_is_the_bound_one_vertex_down_plus_one(self):
        g = ms_layered(4)
        assert find_tree(g, 0, 3).claimed_bound == theorem_bound(g.n - 1, 3) + 1.0
        assert find_tree(g, 0, 3).claimed_bound >= theorem_bound(g.n, 3)
        h = line_graph_balanced_tree(4, 3)
        assert find_tree(h, 0, 4).claimed_bound == theorem_bound(h.n - 1, 4) + 1.0

    def test_dispatch_matches_the_named_finders(self):
        g = ms_layered(5)
        h = line_graph_balanced_tree(5, 3)
        assert find_tree(g, 3, 3) == find_tree_triangle_free(g, 3)
        assert find_tree(h, 3, 5) == find_tree_kr_free(h, 3, 5)

    def test_dispatch_rejects_small_r(self):
        with pytest.raises(ValueError, match="r must be >= 3"):
            find_tree(path_graph(3), 0, 2)

    @pytest.mark.parametrize("r", [3, 4])
    def test_empty_graph_rejected(self, r):
        with pytest.raises(ValueError, match="empty graph"):
            find_tree(Graph(0), 0, r)


class TestFindLargeTree:
    def test_tree_input_returns_whole_graph(self):
        g = path_graph(6)
        cert = find_large_tree(g)
        assert cert.vertices == frozenset(range(6))

    def test_k5_yields_an_edge(self):
        cert = find_large_tree(complete_graph(5))
        assert cert.size == 2
        assert verify_certificate(complete_graph(5), cert)

    def test_layered_m5(self):
        g = ms_layered(5)
        cert = find_large_tree(g)
        assert verify_certificate(g, cert)
        assert cert.size >= 5
        assert cert.size <= 9  # oracle maximum 2m - 1

    def test_disconnected_rejected(self):
        with pytest.raises(FinderPreconditionError):
            find_large_tree(Graph(3, [(0, 1)]))

    def test_single_vertex(self):
        cert = find_large_tree(Graph(1))
        assert cert.vertices == frozenset({0})

    def test_a_triangle_free_graph_is_scanned_once(self, monkeypatch):
        # The r loop's find_clique(g, 3) and the triangle-free finder's
        # precondition share one cached answer, and the layered chain is
        # bipartite: the one BFS sweep marks no vertex, so find_triangle
        # makes no union test that reads a mask, and no clique search of
        # size 3 runs.
        g = ms_layered(4)
        scans = []
        sweep, union = graph._sweep_region, graph._neighbour_union
        first_clique = graph._first_clique

        def counting_sweep(masks, region):
            scans.append("sweep")
            return sweep(masks, region)

        def counting_union(masks, vertex_mask):
            if vertex_mask and sys._getframe(1).f_code is graph.find_triangle.__code__:
                scans.append("union test")
            return union(masks, vertex_mask)

        def counting_first_clique(masks, size, start=0):
            if size == 3:
                scans.append("clique search")
            return first_clique(masks, size, start)

        monkeypatch.setattr(graph, "_sweep_region", counting_sweep)
        monkeypatch.setattr(graph, "_neighbour_union", counting_union)
        monkeypatch.setattr(graph, "_first_clique", counting_first_clique)
        assert verify_certificate(g, find_large_tree(g))
        assert scans == ["sweep"]


def test_each_selection_builds_one_instance(monkeypatch):
    # The finder builds the attachment instance; the selector reads the
    # survivors of the reduction off it and builds none of its own.  A
    # split that leaves one component is taken at its lowest attachment,
    # so only splits into two or more components build and select.
    built, selections, splits, choices = [], [], [], []
    init = WeightedBipartiteInstance.__init__
    select = finders.select_weighted
    split = finders._component_masks

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    def counting_select(inst):
        selections.append(1)
        return select(inst)

    def counting_split(*args):
        comps = split(*args)
        splits.append(1)
        if len(comps) >= 2:
            choices.append(1)
        return comps

    monkeypatch.setattr(WeightedBipartiteInstance, "__init__", counting_init)
    monkeypatch.setattr(finders, "select_weighted", counting_select)
    monkeypatch.setattr(finders, "_component_masks", counting_split)
    # A fresh graph per root, so no call reads a subtree another cached:
    # the cold work of each call.
    for m in range(3, 13):
        for v in range(m * m):
            find_tree(ms_layered(m), v, 3)
    assert len(built) == len(selections) == len(choices)
    assert (len(selections), len(splits)) == (120, 616)
    # One graph per m: later roots read the subtrees cached below earlier
    # roots' first splits, so fewer splits run, and no selection is lost.
    del built[:], selections[:], splits[:], choices[:]
    for m in range(3, 13):
        g = ms_layered(m)
        for v in range(g.n):
            find_tree(g, v, 3)
    assert len(built) == len(selections) == len(choices)
    assert (len(selections), len(splits)) == (120, 352)


def cached_bits(g):
    """The bits the subtree cache holds: each entry's region and value."""
    return sum(key[1].bit_length() + tree.bit_length() for key, tree in g._subtrees.items())


def mask_bits(g):
    return sum(mask.bit_length() for mask in g.adjacency_masks)


def fresh_json(g, v, r):
    return find_tree(Graph(g.n, g.edges), v, r).to_json()


class TestSubtreeCache:
    @settings(max_examples=100, deadline=None)
    @given(connected_kr_free(), st.data())
    def test_cached_subtrees_change_no_certificate(self, case, data):
        # Every root, in a drawn order, for r and r + 1 on one graph object
        # (a K_r-free graph is K_{r+1}-free), against a fresh copy per call.
        r, g = case
        for v in data.draw(st.permutations(range(g.n))):
            for s in (r, r + 1):
                assert find_tree(g, v, s).to_json() == fresh_json(g, v, s)
        # A region of at most 2 vertices needs no step, so it is never cached.
        assert all(region.bit_count() >= 3 for _, region, _ in g._subtrees)

    def test_the_bit_budget_binds_on_a_cycle(self, monkeypatch):
        # Each root of C_200 hands down its own subproblem, of about 400
        # bits, and the masks hold about 20,000: some subtrees go unstored.
        g = cycle_graph(200)
        solved = []
        subtree = finders._subtree

        def counting_subtree(*args):
            solved.append(1)
            return subtree(*args)

        monkeypatch.setattr(finders, "_subtree", counting_subtree)
        for v in range(g.n):
            assert find_tree(g, v, 3).to_json() == fresh_json(g, v, 3)
        assert 0 < len(g._subtrees) < len(solved)
        assert cached_bits(g) <= mask_bits(g) == cached_bits(g) + g._subtree_room

    def test_concurrent_roots_keep_the_budget_exact(self):
        # More threads than cores, switching often, each asking every root
        # of one cycle: a lost update to the budget would break the sum.
        g = cycle_graph(120)
        expected = {v: fresh_json(g, v, 3) for v in range(g.n)}
        mismatches = []

        def ask(order):
            mismatches.extend(v for v in order if find_tree(g, v, 3).to_json() != expected[v])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # Thread k asks roots k, k - 1, ..., 0, then k + 1, ..., n - 1.
            orders = [[*range(k, -1, -1), *range(k + 1, g.n)] for k in range(0, g.n, 20)]
            threads = [threading.Thread(target=ask, args=(order,)) for order in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []
        assert 0 < len(g._subtrees) < g.n
        assert cached_bits(g) <= mask_bits(g) == cached_bits(g) + g._subtree_room


class TestBranchPairChoice:
    # The component-pairing step only runs above n > r^8, out of desk
    # scale, so its selection rules are pinned down directly here.

    def test_distinct_attachments_pick_largest_non_adjacent_pair(self):
        from induced_trees.finders import _choose_branch_pair

        g = Graph(4, [(0, 1), (2, 3)])
        attach = {0: 0, 1: 1, 2: 2, 3: 3}
        sizes = {0: 5, 1: 9, 2: 9, 3: 1}
        pair, strategy = _choose_branch_pair(g, attach, sizes)
        # attachments 1 and 2 are non-adjacent and their components are largest
        assert pair == (1, 2) and strategy == "two-branches"

    def test_distinct_ties_break_to_smallest_indices(self):
        from induced_trees.finders import _choose_branch_pair

        g = Graph(3)
        pair, _ = _choose_branch_pair(g, {0: 0, 1: 1, 2: 2}, {0: 2, 1: 2, 2: 2})
        assert pair == (0, 1)

    def test_shared_attachment_pairs_glue_at_the_shared_vertex(self):
        from induced_trees.finders import _choose_branch_pair

        g = Graph(2, [(0, 1)])
        attach = {0: 0, 1: 0, 2: 1}
        sizes = {0: 3, 1: 4, 2: 10}
        pair, strategy = _choose_branch_pair(g, attach, sizes)
        assert pair == (0, 1) and strategy == "shared-attachment"

    def test_all_adjacent_distinct_attachments_is_an_internal_error(self):
        from induced_trees.finders import InternalInvariantError, _choose_branch_pair

        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(InternalInvariantError):
            _choose_branch_pair(g, {0: 0, 1: 1, 2: 2}, {0: 1, 1: 1, 2: 1})
