"""Regenerate exact_sizes.json, the maximum induced tree size of every
exact-desk graph (`workloads.desk_graph`).

    python3 perfbench/exact_sizes.py

The exact-desk workload fails an op (kind "oracle") whose reported maximum
differs from the recorded one.  The sizes were computed with the package's
exact oracle at the commit that added the benchmark; rerun this only when
the graphs themselves change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

from induced_trees import oracle  # noqa: E402
from workloads import BUDGET, EXACT_SIZES, WORKLOADS, desk_graph  # noqa: E402


def main() -> None:
    budget = oracle.OracleBudget(**BUDGET)
    cells = WORKLOADS["exact-desk"].full["graphs"]
    sizes = [oracle.max_induced_tree_exact(desk_graph(cell), budget)[0] for cell in range(cells)]
    EXACT_SIZES.write_text(json.dumps({"sizes": sizes}) + "\n")


if __name__ == "__main__":
    main()
