"""Every name the package exports has a caller outside its own definition and
the unit tests: library code, a script, the benchmark or an acceptance
criterion.  API that only its own tests call is dead code; this test keeps it
from growing back.  Only source files are read."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "subriem"


def _exported_names() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_every_export_has_a_caller():
    paths = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    paths += [path for folder in ("scripts", "bench") for path in (ROOT / folder).rglob("*.py")]
    paths.append(ROOT / "tests" / "test_acceptance.py")
    lines = [line for path in paths for line in path.read_text().splitlines()]
    uncalled = []
    for name in _exported_names():
        use = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
        if not any(use.search(line) and not definition.match(line) for line in lines):
            uncalled.append(name)
    assert uncalled == []
