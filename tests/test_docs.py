"""Every name that the demos and README's Python blocks import from
fusecast resolves. The suite does not run the demos (CI runs them as a
step of its own), so a renamed or removed export shows here first."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
SOURCES = [(path.name, path.read_text()) for path in DEMOS] + [
    (f"README.md python block {i}", block) for i, block in enumerate(README_BLOCKS)]


def fusecast_imports(source: str):
    """(module, name) for each ``from fusecast... import name``, and
    (module, None) for each ``import fusecast...``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fusecast":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fusecast":
                    yield alias.name, None


def test_sources_found():
    assert len(DEMOS) >= 4 and README_BLOCKS


@pytest.mark.parametrize("name,source", SOURCES, ids=[name for name, _ in SOURCES])
def test_fusecast_imports_resolve(name, source):
    imports = list(fusecast_imports(source))
    assert imports, f"{name} imports nothing from fusecast"
    for module, attr in imports:
        mod = importlib.import_module(module)
        assert attr is None or hasattr(mod, attr), f"{name}: {module} has no {attr!r}"
