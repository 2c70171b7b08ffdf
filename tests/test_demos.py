"""The demos' printed output is deterministic; one digest pins it, so a
refactor that claims byte-identical demo output is checked, not read by eye."""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"
DEMO_NAMES = ("extremal_constructions.py", "selection_guarantees.py", "tree_finding_tour.py")
DEMOS_SHA256 = "27ec69ac3562a5fef8d4c99f93c42fab9ec588b4fe11f17018d92bd506fa27e3"


def test_demos_print_pinned_output():
    digest = hashlib.sha256()
    for name in DEMO_NAMES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(DEMOS / name), run_name="__main__")
        digest.update(out.getvalue().encode("utf-8"))
    assert digest.hexdigest() == DEMOS_SHA256
