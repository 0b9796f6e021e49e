"""Mutated corpus lines through every command that reads a corpus.

A generated test takes a valid tokens or text line and mutates it: bytes
that are not UTF-8, numbers JSON admits but no token is (``NaN``,
``1e400``, huge and negative ints, bools), deep nesting, a member name
given twice, ids with dots, slashes, lone surrogates or 255-byte names,
and line breaks inside a text. It writes the line after a valid one and
runs the file through ``segment --out-dir``, ``pipeline``, ``ablate --axis
alpha`` and ``rouge`` (the file scored against itself) with a tiny model.

- The exit code is 0 or 1, never 2.
- An exit 1 prints one ``error:`` line naming the corpus and no traceback,
  and leaves ``--out-dir`` absent.
- An exit 0 runs the lines as written: an independent strict reader
  sees one valid document in every line, none giving a member name twice,
  ``segment`` writes one file per line with that line's id, and ``rouge``
  scores one row per line, a line ending at ``\\r\\n``, ``\\n`` or ``\\r``.
- An exit 0, repeated into a second directory, gives a byte-identical
  tree; ``ablation.csv`` is compared without its ``fuse_seconds`` column.
"""

import csv
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chunkfuse.cli import main

TINY = ["--chunk-len", "8", "--overlap", "2", "--middle-count", "2", "--d-model", "8",
        "--n-heads", "2", "--n-layers", "1", "--d-ff", "16", "--vocab-size", "64",
        "--seed", "5"]
COMMANDS = {
    "segment": ["segment", "CORPUS", *TINY],
    "pipeline": ["pipeline", "CORPUS", *TINY],
    "ablate": ["ablate", "CORPUS", "--axis", "alpha", "--values", "0.0,1.0", *TINY],
    "rouge": ["rouge", "CORPUS", "CORPUS"],
}
# 20 tokens or words: 3 windows of 8 at overlap 2, as many as ablate's probe reads
VALID = {"tokens": json.dumps(list(range(40, 60))),
         "text": json.dumps(" ".join(f"w{i % 7}" for i in range(20)))}
FIRST = {"tokens": '{"id": "good", "tokens": ' + json.dumps(list(range(20))) + "}",
         "text": '{"id": "good", "text": ' + json.dumps(" ".join("abcdefg" * 3)) + "}"}

values = (st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1", "-0", "0.5", "3e0",
                           str(2**63 - 1), str(2**63), str(2**64), "1" + "0" * 5000,
                           "true", "false", "null", '""', '"7"', "{}", "[]", "[7]",
                           '{"k": 1, "k": 2}'])
          | st.integers().map(str)
          | st.sampled_from([2, 900, 1001, 100_000]).map(lambda n: "[" * n + "]" * n))
ids = st.sampled_from([".", "..", "...", "a.b", "a/b", "/", "../up", "good", "", "\ud800",
                       "a\udc80b", "é", "a b", "x" * 241, "x" * 242, "x" * 255,
                       "x" * 256]) | st.text(max_size=4)
# raw inside a text: JSON admits the first three and refuses the next three as
# control characters; the last two end the line
breaks = st.sampled_from(["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\r", "\n"])
bad_bytes = st.sampled_from([b"\xff", b"\xc3", b"\xc0\xaf", b"\xed\xa0\x80",
                             b"\xf4\x90\x80\x80"])


@st.composite
def mutated_lines(draw):
    """``(kind, line bytes)``: a valid line of ``kind`` with one or two mutations."""
    kind = draw(st.sampled_from(["tokens", "text"]))
    members = [["id", '"doc"'], [kind, VALID[kind]]]
    cut = None
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(["value", "token", "repeat", "id", "break", "bytes"]))
        if how == "value":
            draw(st.sampled_from(members))[1] = draw(values)
        elif how == "token" and kind == "tokens":
            members[1][1] = "[40, " + draw(values) + ", 41]"
        elif how == "repeat":
            name = draw(st.sampled_from(["id", kind]))
            members.append([name, draw(st.sampled_from([VALID[kind], '"dup"']))])
        elif how == "id":
            members[0][1] = json.dumps(draw(ids))
        elif how == "break" and kind == "text":
            members[1][1] = members[1][1][:-4] + draw(breaks) + members[1][1][-4:]
        elif how == "bytes":
            cut = draw(st.integers(0, 30)), draw(bad_bytes)
    line = "{" + ", ".join(f'"{name}": {value}' for name, value in members) + "}"
    data = line.encode("utf-8")
    if cut is not None:
        data = data[:cut[0]] + cut[1] + data[cut[0]:]
    return kind, data


def read_tree(root: Path) -> dict:
    tree = {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}
    if "ablation.csv" in tree:  # fuse_seconds is a wall time
        rows = csv.reader(io.StringIO(tree["ablation.csv"].decode("utf-8")))
        tree["ablation.csv"] = [row[:-1] for row in rows]
    return tree


def documents(data: bytes) -> list | None:
    """Each line's document as an independent strict reader sees it, or None if one is not."""
    def unique(pairs):
        names = [name for name, _ in pairs]
        if len(set(names)) < len(names):
            raise ValueError("a name given twice")
        return dict(pairs)

    try:
        lines = re.split(r"\r\n|\r|\n", data.decode("utf-8"))[:-1]
        objects = [json.loads(line, object_pairs_hook=unique) for line in lines]
    except (ValueError, RecursionError):
        return None
    return objects if all(map(is_document, objects)) else None


def is_document(obj) -> bool:
    """A JSON object with a UTF-8 ``"id"`` string and either ``"tokens"`` or ``"text"``.

    Tokens are a non-empty list of JSON ints in ``[0, 2**63)``, and a text
    holds a word.
    """
    if not (isinstance(obj, dict) and isinstance(obj.get("id"), str)
            and ("tokens" in obj) != ("text" in obj)):
        return False
    if any("\ud800" <= char <= "\udfff" for char in obj["id"]):  # a lone surrogate
        return False
    if "text" in obj:
        return isinstance(obj["text"], str) and obj["text"].split() != []
    tokens = obj["tokens"]
    return (isinstance(tokens, list) and tokens != []
            and all(type(token) is int and 0 <= token < 2**63 for token in tokens))


def run(command: str, corpus: Path, out: Path, capsys) -> tuple[int, str]:
    argv = [str(corpus) if arg == "CORPUS" else arg for arg in COMMANDS[command]]
    capsys.readouterr()
    code = main([*argv, "--out-dir", str(out)])
    return code, capsys.readouterr().err


@given(line=mutated_lines())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@example(line=("tokens", b'{"id": "a", "id": "b", "tokens": [1, 2, 3]}'))
@example(line=("tokens", b'{"id": "a", "tokens": [1, 2, 3], "tokens": [4, 5, 6]}'))
@example(line=("text", '{"id": "a", "text": "one\u2028two"}'.encode("utf-8")))
@example(line=("text", b'{"id": "a", "text": "one two \xff"}'))
@example(line=("tokens", b'{"id": ' + b"[" * 900 + b"]" * 900 + b', "tokens": [1]}'))
@example(line=("tokens", b'{"id": "a", "tokens": [1, true, 3]}'))
@example(line=("tokens", b'{"id": "a\\ud800", "tokens": [1, 2, 3]}'))
def test_a_mutated_line_runs_as_written_or_exits_one(tmp_path, capsys, line):
    kind, data = line
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        corpus = Path(work) / "corpus.jsonl"
        corpus.write_bytes(FIRST[kind].encode("utf-8") + b"\n" + data + b"\n")
        docs = documents(corpus.read_bytes())
        for command in COMMANDS:
            first, second = Path(work) / f"{command}-1", Path(work) / f"{command}-2"
            code, err = run(command, corpus, first, capsys)
            assert code in (0, 1) and "Traceback" not in err, (command, err)
            if code == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
                assert str(corpus) in err and not first.exists(), (command, err)
                continue
            tree = read_tree(first)
            if command == "segment":
                assert docs is not None, err
                written = sorted(json.loads(text)["id"] for text in tree.values())
                assert written == sorted(doc["id"] for doc in docs), err
            if command == "rouge":
                breaks = len(re.findall(rb"\r\n|\r|\n", corpus.read_bytes()))
                assert len(tree["rouge.csv"].splitlines()) == breaks + 2  # header and mean
            assert run(command, corpus, second, capsys) == (0, err), command
            assert read_tree(second) == tree, command
