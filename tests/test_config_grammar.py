"""One grammar for every config value, typed in one place.

A ``--config`` file, a ``CHUNKFUSE_*`` variable, a config flag and an
``ablate --values`` entry all read a value as JSON, and
``PipelineConfig.from_json`` alone turns JSON values into a config. The
AST checks keep a second reader from growing back: only ``pipeline.py``
reads a config field's ``.type``. The generated test drives ``cli.main``
over one field and one spelling in every layer:

- a spelling that ``json.loads`` accepts gives one config in every layer,
  or the same ``error:`` line in every layer (an ``ablate`` entry prefixes
  it with ``--values entry``);
- any other spelling exits 1 in every layer, naming the flag, variable,
  entry or config file;
- an exit 1 prints one ``error:`` line and no traceback, and leaves no
  ``--out-dir``; nothing exits 2.

Each layer runs ``segment`` on a two-document corpus, or ``ablate`` on an
empty one, which exits 1 once its configs are built and before any draw.
A flag is passed as ``--flag=value``, the form that takes a value
beginning with ``-``.
"""

import ast
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chunkfuse.cli import ENV_PREFIX, main
from chunkfuse.pipeline import PipelineConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "chunkfuse"
FIELDS = [f.name for f in fields(PipelineConfig)]
AXES = {"alpha", "middle_count", "overlap"}  # the fields ablate sweeps


def parsed():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_only_pipeline_reads_a_field_type():
    readers = sorted({name for name, tree in parsed().items() for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "type"})
    assert readers == ["pipeline.py"]


def test_from_json_is_defined_once_and_cli_keeps_no_field_types():
    trees = parsed()
    defined = [(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert [name for name, function in defined if function == "from_json"] == ["pipeline.py"]
    assert ("cli.py", "_field_type") not in defined


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("grammar")
    tokens = root / "tokens.jsonl"
    tokens.write_text('{"id": "a", "tokens": [1, 2, 3, 4, 5, 6, 7, 8, 9]}\n'
                      '{"id": "b", "tokens": [3, 1, 4]}\n', encoding="utf-8")
    empty = root / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    return root, tokens, empty


def run_layer(layer, field, spelling, work, tokens, empty):
    """``(exit code, whether --out-dir exists, last config built)`` of one layer."""
    out = work / "out"
    flag = "--" + field.replace("_", "-")
    argv = ["segment", str(tokens), "--out-dir", str(out)]
    env = {}
    if layer == "file":
        config = work / "cfg.json"
        config.write_text("{" + json.dumps(field) + ": " + spelling + "}", encoding="utf-8")
        argv += ["--config", str(config)]
    elif layer == "env":
        env[ENV_PREFIX + field.upper()] = spelling
    elif layer == "flag":
        argv.append(f"{flag}={spelling}")
    else:
        argv = ["ablate", str(empty), "--axis", flag[2:], f"--values={spelling}",
                "--out-dir", str(out)]

    built = []
    real = PipelineConfig.from_json.__func__

    def recording(cls, values):
        built.append(real(cls, values))
        return built[-1]

    stale = [name for name in os.environ if name.startswith(ENV_PREFIX)]
    with mock.patch.dict(os.environ, env), \
            mock.patch.object(PipelineConfig, "from_json", classmethod(recording)):
        for name in stale:
            del os.environ[name]
        code = main(argv)
    return code, out.exists(), built[-1] if built else None


def json_accepts(spelling: str) -> bool:
    try:
        json.loads(spelling)
    except (ValueError, RecursionError):
        return False
    return True


def env_safe(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        return False
    return "\x00" not in text


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 2000) | st.integers()
    | st.floats() | st.floats(0, 1) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)
# JSON text around a value: blanks JSON allows, and a non-ASCII dump
json_spellings = st.builds(lambda pad, value, ascii: pad + json.dumps(value, ensure_ascii=ascii)
                           + pad, st.sampled_from(["", " ", "\t", "\n"]), json_values,
                           st.booleans())
# number-like text that int() or float() once took: underscores, signs, other digits
number_like = st.text(alphabet="0123456789_+-.eE ٣０١infatyINFATYNul", max_size=8)
# no comma: a config file could hold a second field after it
other_text = st.text(max_size=8).filter(lambda text: "," not in text)
spellings = (json_spellings | number_like | other_text).filter(env_safe)


@given(field=st.sampled_from(FIELDS), spelling=spellings)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(field="overlap", spelling="0_1_6")
@example(field="overlap", spelling="٣")
@example(field="overlap", spelling="016")
@example(field="overlap", spelling="+5")
@example(field="alpha", spelling=".5")
@example(field="alpha", spelling="5.")
@example(field="alpha", spelling="inf")
@example(field="alpha", spelling="1")
@example(field="middle_seed", spelling="null")
@example(field="chunk_len", spelling="100000000000000000000000")
@example(field="chunk_len", spelling="64.0")
@example(field="n_heads", spelling="0")
@example(field="chunk_len", spelling="--")
def test_a_value_reads_alike_in_every_layer(corpora, capsys, field, spelling):
    root, tokens, empty = corpora
    layers = ["file", "env", "flag"] + (["ablate"] if field in AXES else [])
    seen = {}
    for layer in layers:
        with tempfile.TemporaryDirectory(dir=root) as work:
            capsys.readouterr()
            code, out_exists, cfg = run_layer(layer, field, spelling, Path(work),
                                              tokens, empty)
            err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert code in (0, 1) and "Traceback" not in err, (layer, err)
        if code == 1:
            assert len(errors) == 1 and not out_exists, (layer, err)
        seen[layer] = code, cfg, errors[0] if errors else None

    if not json_accepts(spelling):
        assert all(code == 1 and cfg is None for code, cfg, _ in seen.values()), seen
        named = {"file": "cannot read config file ", "env": f"{ENV_PREFIX}{field.upper()} ",
                 "flag": "--" + field.replace("_", "-") + " ", "ablate": "--values entry "}
        for layer, (_, _, line) in seen.items():
            assert line.startswith("error: " + named[layer]), (layer, line)
            if layer != "file":
                assert line.count(repr(spelling)) == 1, (layer, line)
        return

    # segment exits 0 with a config; ablate on an empty corpus exits 1 with one
    code, cfg, line = seen["file"]
    assert seen["env"] == seen["flag"] == (code, cfg, line), seen
    if "ablate" in seen:
        ablate_code, ablate_cfg, ablate_line = seen["ablate"]
        assert ablate_code == 1 and ablate_cfg == cfg, seen
        if cfg is None and "," not in spelling:
            assert ablate_line.startswith(f"error: --values entry {spelling!r}: ")
            assert ablate_line.endswith(line[len("error: "):]), seen
        elif cfg is not None:
            assert "holds no documents" in ablate_line, seen
    if cfg is not None:
        assert code == 0
        assert cfg == PipelineConfig.from_json({field: json.loads(spelling)})
