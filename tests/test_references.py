"""Every top-level `def` and `class` in the package has a caller outside the
tests: a routine only the tests run goes, unless ALLOWED names it with the
reason it stays.

A name counts as referenced when it appears as a whole word in any Python
file under src/, scripts/ or perfbench/, outside its own definition and
outside the package's re-exports in __init__.py. Words in strings count:
perfbench's tracer wraps functions by attribute name.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "textshaper"

ALLOWED = {
    "loss_seg": "the paper's text/center segmentation loss; training-time only, checked by C06",
    "smooth_l1": "the paper's height/angle regression loss; training-time only, checked by C06",
    "loss_sr": "the paper's spatial-reconstruction loss; training-time only, checked by C06",
    "loss_ss": "the paper's semantic-alignment loss; training-time only, checked by C06",
}


def unreferenced_names() -> set[str]:
    sources = [p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
               if p != PACKAGE / "__init__.py"]
    lines = {p: p.read_text(encoding="utf-8").splitlines() for p in sources}
    missing = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{node.name}\b")
            texts = ("\n".join(text[:node.lineno - 1] + text[node.end_lineno:])
                     if p == path else "\n".join(text) for p, text in lines.items())
            if not any(word.search(t) for t in texts):
                missing.add(node.name)
    return missing


def test_every_top_level_name_has_a_caller():
    stray = unreferenced_names() - ALLOWED.keys()
    assert not stray, (f"referenced only by tests: {sorted(stray)}; remove them, or add "
                       "each to ALLOWED with its reason")


def test_allow_list_names_only_unreferenced_names():
    stale = ALLOWED.keys() - unreferenced_names()
    assert not stale, f"ALLOWED entries that now have a caller or are gone: {sorted(stale)}"
