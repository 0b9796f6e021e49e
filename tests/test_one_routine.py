"""One attention routine, one layer norm, one softmax in the library.

The encoder and the decoder share ``_attention``, ``_layer_norm`` and
``_softmax_last``. Each is defined once in ``src/chunkfuse``, and only the
softmax and the attention routine call ``exp`` or the softmax, so a second
softmax written out anywhere else fails here. Weight products outside
``_attention`` stay allowed: the decoder's cache of each position's
self-attention keys and values computes them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chunkfuse"
SHARED = ("_attention", "_layer_norm", "_softmax_last")
SOFTMAX_OWNERS = {"_softmax_last", "_attention"}


def parsed():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [(path, ast.parse(path.read_text(encoding="utf-8"), str(path))) for path in paths]


def calls_exp_or_softmax(node: ast.AST) -> bool:
    """``node`` calls ``exp`` (of numpy, math or a bare import) or ``_softmax_last``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in {"exp", "_softmax_last"}


def softmax_calls(node: ast.AST, owner: str | None = None):
    """``(line, innermost enclosing function)`` of each such call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from softmax_calls(child, child.name)
            continue
        if calls_exp_or_softmax(child):
            yield child.lineno, owner
        yield from softmax_calls(child, owner)


def test_each_shared_routine_is_defined_once():
    defined = [(path.name, node.name) for path, tree in parsed() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name in SHARED]
    assert sorted(name for _, name in defined) == sorted(SHARED), defined


def test_only_the_softmax_and_attention_call_exp_or_the_softmax():
    found = [(path.name, line, owner) for path, tree in parsed()
             for line, owner in softmax_calls(tree)]
    assert {owner for _, _, owner in found} == SOFTMAX_OWNERS, found
