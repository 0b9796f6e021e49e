"""One way in for every outside text the CLI reads.

``cli.py`` reads each file through one line reader, ``_read_lines``, which
ends a line at ``\\n``, ``\\r\\n`` or ``\\r`` alone, and decodes every JSON
text (a corpus line, a ``--config`` file, a flag value) through one
decoder, ``_json_value``, which refuses a member name given twice. Every
corpus passes one gate, ``_load_checked``, which also checks the file
names of a run that writes one file per document. A second ``json.loads``,
a ``str.splitlines`` of a file or a corpus read past the gate fails here.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "chunkfuse" / "cli.py"


def calls(node: ast.AST, owner: str | None = None):
    """``(called name, innermost enclosing function)`` of each call under ``node``.

    The name is the last part of a dotted call: ``json.loads`` and a bare
    ``loads`` are both ``loads``.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            yield (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None),
                   owner)
        yield from calls(child, owner)


def owners(name: str) -> set:
    tree = ast.parse(CLI.read_text(encoding="utf-8"), str(CLI))
    return {owner for called, owner in calls(tree) if called == name}


def test_json_loads_runs_only_in_the_decoder():
    assert owners("loads") == {"_json_value"}


def test_splitlines_runs_only_in_the_line_reader():
    assert owners("splitlines") == {"_read_lines"}


def test_only_the_gate_and_load_corpus_read_a_corpus():
    assert owners("_read_corpus") == {"_load_checked", "load_corpus"}
    assert owners("_read_lines") == {"_read_corpus", "cmd_rouge"}


def test_the_file_name_check_lives_in_the_gate():
    names = {node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             else node.arg if isinstance(node, ast.arg)
             else node.id if isinstance(node, ast.Name)
             else node.attr if isinstance(node, ast.Attribute)
             else node.arg if isinstance(node, ast.keyword) else None
             for node in ast.walk(ast.parse(CLI.read_text(encoding="utf-8")))}
    assert {"_load_checked", "_safe_id", "suffix"} <= names  # the walk sees both kinds
    assert names & {"_check_file_names", "file_per_document"} == set()
