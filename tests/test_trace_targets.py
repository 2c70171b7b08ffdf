"""The span tracer in perfbench/ finds its targets by name.  A renamed or
removed target only lands in `Tracer.missing`, and the per-layer numbers
then go quietly empty, so the names are pinned here."""

import importlib.util
from pathlib import Path

import pytest

from induced_trees import Graph, finders, graph

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_found_and_restored(spans):
    originals = {(owner, attr): vars(owner)[attr] for _, owner, attr in spans.TARGETS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert finders.find_tree_triangle_free is not originals[(finders, "find_tree_triangle_free")]
        assert graph._component_masks is not originals[(graph, "_component_masks")]
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original


def test_recursion_levels_are_counted(spans):
    # A cycle decomposes level by level: every level past the star test
    # runs one component search, and the levels run one after another from
    # the finders' shared loop, so no finder frame nests in another.
    g = Graph(12, [(i, (i + 1) % 12) for i in range(12)])
    tracer = spans.Tracer()
    tracer.install()
    try:
        cert = finders.find_tree_triangle_free(g, 0)
    finally:
        tracer.uninstall()
    assert finders.verify_certificate(g, cert)
    metrics = tracer.layer_metrics()
    assert metrics["finders.recursion.calls"] == metrics["graph.component_masks.calls"]
    assert metrics["finders.recursion.calls"] > 1
    assert metrics["finders.recursion.max_depth"] == 1
