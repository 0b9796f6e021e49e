"""The library imports nothing but the standard library and numpy.

numpy is the one runtime dependency ``pyproject.toml`` declares. scipy,
pytest and hypothesis are installed beside it for the tests, so an
accidental ``import scipy`` in ``src/`` would pass every other test.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chunkfuse"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "chunkfuse"}


def absolute_imports(path: Path):
    """``(line, module)`` of every absolute import in ``path``, nested ones included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_library_imports_only_the_standard_library_and_numpy():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = [f"{path.name}:{line}: {module}"
               for path in paths for line, module in absolute_imports(path)
               if module.split(".")[0] not in ALLOWED]
    assert outside == []
