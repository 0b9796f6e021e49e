"""One memory price for every run the CLI draws.

``cli._check_memory`` prices a run as one total: both weight stacks, one
window's scores and the run's document tokens. It is defined once, and
``cli.py`` keeps no module-level table of the fields that size arrays, so
no second description of the model can drift from the draws. Every
subcommand that draws weights or tokens prices its run before the first
draw and before ``_published`` creates anything.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "chunkfuse" / "cli.py"
SIZE_FIELDS = {"vocab_size", "d_model", "n_layers", "d_ff", "n_heads", "chunk_len"}
DRAWS = {"init_weights", "run_scaling", "make_repeated_chunk_doc"}
DRAWING_COMMANDS = {"cmd_ablate", "cmd_bench", "cmd_pipeline", "cmd_probe"}


def tree():
    return ast.parse(CLI.read_text(encoding="utf-8"), str(CLI))


def called(node: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of each call under ``node``, by the called name or attribute."""
    calls = []
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            calls.append((child.lineno, name))
    return sorted(calls)


def functions() -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in tree().body if isinstance(node, ast.FunctionDef)}


def drawing() -> set[str]:
    """The module's functions that call a draw, directly or through another of them."""
    calls = {name: {callee for _, callee in called(node)} for name, node in functions().items()}
    found = {name for name, callees in calls.items() if callees & DRAWS}
    while grown := {name for name, callees in calls.items() if callees & found} - found:
        found |= grown
    return found


def test_check_memory_is_defined_once():
    defined = [node.name for node in ast.walk(tree())
               if isinstance(node, ast.FunctionDef) and node.name == "_check_memory"]
    assert defined == ["_check_memory"]


def test_no_module_level_size_table():
    tables = [(node.lineno, constant.value) for node in tree().body
              if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
              for constant in ast.walk(node.value)
              if isinstance(constant, ast.Constant) and constant.value in SIZE_FIELDS]
    assert tables == []


def test_each_drawing_command_prices_its_run_first():
    commands = {name for name in drawing() if name.startswith("cmd_")}
    assert commands == DRAWING_COMMANDS
    draws = DRAWS | drawing() | {"_published"}
    for name in sorted(commands):
        calls = called(functions()[name])
        priced = [line for line, callee in calls if callee == "_check_memory"]
        first = min(line for line, callee in calls if callee in draws)
        assert len(priced) == 1 and priced[0] < first, (name, priced, first)
