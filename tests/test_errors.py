"""The library raises only the errors whose exit code the CLI decides.

``cli.main`` exits 1 for a ``ConfigError`` or ``InputError`` (the
caller's fault) and 2 for anything else. So every ``raise`` of a named
class in ``src/chunkfuse`` must be one of those two, or
``FloatingPointError`` for a non-finite value the program computed.
The one other class is ``argparse.ArgumentTypeError``, raised by the
CLI's type parser ``_at_least``, which argparse turns into a usage error.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "chunkfuse"
ALLOWED = {"ConfigError", "InputError", "FloatingPointError"}
TYPE_PARSERS = {("cli.py", "_at_least")}


def raised_names(tree: ast.Module):
    """(enclosing top-level function, raised class name) for each ``raise X`` or ``raise X(...)``."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                yield getattr(top, "name", None), ast.unparse(exc)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_raises_only_exit_coded_errors(path):
    source = path.read_text(encoding="utf-8")
    assert "ContractError" not in source  # the retired "internal bug" error class
    for function, name in raised_names(ast.parse(source)):
        if name == "argparse.ArgumentTypeError":
            assert (path.name, function) in TYPE_PARSERS, function
        else:
            assert name in ALLOWED, f"{path.name}: {function} raises {name}"


def test_guard_sees_every_raise():
    # the guard would pass vacuously if it found no raises at all
    found = [name for path in SRC.glob("*.py")
             for _, name in raised_names(ast.parse(path.read_text(encoding="utf-8")))]
    assert {"ConfigError", "InputError", "FloatingPointError",
            "argparse.ArgumentTypeError"} <= set(found)
