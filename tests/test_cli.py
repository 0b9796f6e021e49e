import argparse
import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from chunkfuse.cli import _build_parser, build_config, load_corpus, main
from chunkfuse.errors import InputError

CORPORA = Path(__file__).resolve().parents[1] / "corpora"

SMALL_FLAGS = [
    "--chunk-len", "8", "--overlap", "2", "--boundary-width", "1",
    "--middle-count", "2", "--d-model", "16", "--n-heads", "2",
    "--n-layers", "1", "--d-ff", "32", "--vocab-size", "64", "--seed", "5",
]


def write_corpus(path: Path, docs) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")
    return path


def token_corpus(tmp_path: Path, name="corpus.jsonl") -> Path:
    return write_corpus(tmp_path / name, [
        {"id": "alpha", "tokens": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]},
        {"id": "beta", "tokens": [3, 1, 4, 1, 5, 9, 2, 6]},
    ])


def identical_chunk_corpus(tmp_path: Path) -> Path:
    """Two documents of 4 identical 8-token chunks under SMALL_FLAGS."""
    from chunkfuse.metrics import make_repeated_chunk_doc
    docs = [{"id": f"d{i}",
             "tokens": list(make_repeated_chunk_doc(4, 8, 2, 64, seed=40 + i))}
            for i in range(2)]
    return write_corpus(tmp_path / "ident.jsonl", docs)


def count_encoded_windows(monkeypatch) -> list:
    """Record one entry per window ``encoder.encode`` encodes, for the rest of the test."""
    import chunkfuse.encoder as encoder_mod
    windows = []
    real = encoder_mod.encode

    def counting(tokens, *args, **kwargs):
        windows.extend([1] * len(tokens))
        return real(tokens, *args, **kwargs)

    monkeypatch.setattr(encoder_mod, "encode", counting)
    return windows


def read_tree(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


# one quick run of every subcommand, to which the out-dir tests append --out-dir
OUT_DIR_RUNS = {
    "ablate": lambda tmp: ["ablate", str(identical_chunk_corpus(tmp)),
                           "--axis", "alpha", "--values", "0.5", *SMALL_FLAGS],
    "bench": lambda tmp: ["bench", "--lengths", "16,32,64,128", "--repeats", "1",
                          *SMALL_FLAGS],
    "pipeline": lambda tmp: ["pipeline", str(token_corpus(tmp)), *SMALL_FLAGS],
    "probe": lambda tmp: ["probe", "--n-chunks", "4", "--n-docs", "1", *SMALL_FLAGS],
    "rouge": lambda tmp: ["rouge", *[str(CORPORA / "tiny_text.jsonl")] * 2],
    "segment": lambda tmp: ["segment", str(token_corpus(tmp)), *SMALL_FLAGS],
}


def test_out_dir_runs_cover_every_subcommand():
    (subcommands,) = [action.choices for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert sorted(OUT_DIR_RUNS) == sorted(subcommands)


class TestCorpusLoading:
    def test_token_docs(self, tmp_path):
        docs, vocab = load_corpus(token_corpus(tmp_path))
        assert vocab is None
        assert docs[0] == ("alpha", (1, 2, 3, 4, 5, 6, 7, 8, 9, 10))

    def test_text_docs_build_sorted_vocab(self, tmp_path):
        path = write_corpus(tmp_path / "t.jsonl", [
            {"id": "a", "text": "the cat sat"},
            {"id": "b", "text": "the dog"},
        ])
        docs, vocab = load_corpus(path)
        assert vocab == {"cat": 0, "dog": 1, "sat": 2, "the": 3}
        assert docs[0] == ("a", (3, 0, 2))

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "tokens": [1]}\nnot json\n')
        with pytest.raises(InputError, match=":2:"):
            load_corpus(path)

    def test_too_deeply_nested_line_exits_one(self, tmp_path, capsys):
        path = tmp_path / "deep.jsonl"
        path.write_text('{"id": "a", "tokens": [1]}\n' + "[" * 100_000 + "\n")
        assert main(["segment", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2: malformed JSON" in err and "Traceback" not in err

    def test_int_too_long_to_parse_exits_one(self, tmp_path, capsys):
        path = tmp_path / "long.jsonl"
        digits = "1" * 5000  # more than Python turns into an int
        path.write_text(f'{{"id": "a", "tokens": [1]}}\n{{"id": "b", "tokens": [{digits}]}}\n')
        assert main(["segment", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2: malformed JSON" in err and "Traceback" not in err

    def test_missing_corpus_exits_one(self, tmp_path, capsys):
        path = tmp_path / "absent.jsonl"
        assert main(["segment", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read corpus {path}: ")

    def test_blank_lines_keep_later_line_numbers(self, tmp_path, capsys):
        path = tmp_path / "blank.jsonl"
        good = '{"id": "a", "tokens": [1, 2, 3]}\n\n \t\n{"id": "b", "tokens": [4]}\n'
        path.write_text(good)
        assert [doc_id for doc_id, _ in load_corpus(path)[0]] == ["a", "b"]
        path.write_text(good + '\n{"id": "c", "tokens": [true]}\n')
        assert main(["segment", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: {path}:6: document 'c': tokens must be "
                                           "a non-empty list of ints in [0, 2**63)\n")

    @pytest.mark.parametrize("line, message", [
        ('{"tokens": [1, 2, 3]}', 'document needs an "id" field'),
        ("[1, 2, 3]", 'document needs an "id" field'),
        ('{"id": "b"}', 'need "tokens" or "text"'),
    ])
    def test_line_that_is_no_document_exits_one(self, tmp_path, capsys, line, message):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "tokens": [1, 2, 3]}\n' + line + "\n")
        assert main(["segment", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: {message}\n"

    def test_mixed_kinds_rejected(self, tmp_path):
        path = write_corpus(tmp_path / "m.jsonl", [
            {"id": "a", "tokens": [1]},
            {"id": "b", "text": "hi"},
        ])
        with pytest.raises(InputError, match="mix"):
            load_corpus(path)

    def test_negative_token_rejected(self, tmp_path):
        path = write_corpus(tmp_path / "n.jsonl", [{"id": "a", "tokens": [-1]}])
        with pytest.raises(InputError):
            load_corpus(path)

    def test_bool_token_rejected_before_writing(self, tmp_path, capsys):
        path = write_corpus(tmp_path / "b.jsonl", [
            {"id": "good", "tokens": [1, 2, 3]},
            {"id": "flag", "tokens": [1, True, 3]},
        ])
        out = tmp_path / "run"
        assert main(["pipeline", str(path), "--out-dir", str(out), *SMALL_FLAGS]) == 1
        assert capsys.readouterr().err == (f"error: {path}:2: document 'flag': tokens must be "
                                           "a non-empty list of ints in [0, 2**63)\n")
        assert not out.exists()

    # an empty document, an id that is not a string or not UTF-8 (a lone
    # surrogate, which a JSON \u escape admits), and a line with both kinds
    @pytest.mark.parametrize("doc", [{"id": "hollow", "tokens": []},
                                     {"id": "hollow", "text": "   "},
                                     {"id": None, "tokens": [1, 2, 3]},
                                     {"id": ["a"], "tokens": [1, 2, 3]},
                                     {"id": "a\ud800", "tokens": [1, 2, 3]},
                                     {"id": "hollow", "tokens": [1, 2, 3], "text": "a b"}])
    def test_empty_document_rejected_before_writing(self, tmp_path, capsys, doc):
        first = {"id": "good", "tokens": [1, 2, 3]} if "tokens" in doc else \
            {"id": "good", "text": "a b c"}
        path = write_corpus(tmp_path / "e.jsonl", [first, doc])
        out = tmp_path / "run"
        assert main(["pipeline", str(path), "--out-dir", str(out), *SMALL_FLAGS]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2:" in err and repr(doc["id"]) in err
        assert not out.exists()

    # pipeline's case is in test_empty_document_rejected_before_writing
    @pytest.mark.parametrize("command", [
        ["segment", "CORPUS", "--out-dir", "OUT"],
        ["ablate", "CORPUS", "--axis", "alpha", "--values", "0.5", "--out-dir", "OUT"],
    ], ids=lambda argv: argv[0])
    def test_lone_surrogate_id_exits_one_before_writing(self, tmp_path, capsys, command):
        path = write_corpus(tmp_path / "s.jsonl", [
            {"id": "good", "tokens": [1, 2, 3]},
            {"id": "bad\udc80", "tokens": [1, 2, 3]},
        ])
        out = tmp_path / "run"
        argv = [{"CORPUS": str(path), "OUT": str(out)}.get(a, a) for a in command]
        assert main([*argv, *SMALL_FLAGS]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2:" in err and "not UTF-8" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["segment", "pipeline"])
    def test_token_id_beyond_int64_exits_one(self, tmp_path, capsys, command):
        path = write_corpus(tmp_path / "h.jsonl", [
            {"id": "good", "tokens": [1, 2, 3]},
            {"id": "huge", "tokens": [1, 2**63, 3]},
        ])
        out = tmp_path / "run"
        assert main([command, str(path), "--out-dir", str(out), *SMALL_FLAGS]) == 1
        captured = capsys.readouterr()
        assert f"{path}:2:" in captured.err and "'huge'" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_largest_int64_token_id_is_kept(self, tmp_path, capsys):
        path = write_corpus(tmp_path / "h.jsonl", [{"id": "edge", "tokens": [2**63 - 1]}])
        assert main(["segment", str(path), "--include-tokens"]) == 0
        line = json.loads(capsys.readouterr().out)
        assert line["segments"][0]["tokens"] == [2**63 - 1]


class TestRepeatedNames:
    """An object that gives one member name twice exits 1; ``json.loads`` kept the last."""

    # 20 tokens: 3 windows under SMALL_FLAGS, as many as ablate's probe reads
    TOKENS = json.dumps(list(range(1, 21)))

    @pytest.mark.parametrize("command, line, name", [
        (["segment"], '{"id": "a", "id": "b", "tokens": T}', "id"),
        (["pipeline"], '{"id": "a", "tokens": [1, 2, 3], "tokens": T}', "tokens"),
        (["ablate", "--axis", "alpha", "--values", "0.5"],
         '{"id": "a", "tokens": T, "meta": {"k": 1, "k": 2}}', "k"),
    ], ids=["segment", "pipeline", "ablate"])
    def test_corpus_line_exits_one(self, tmp_path, capsys, command, line, name):
        path = tmp_path / "c.jsonl"
        path.write_text(f'{{"id": "z", "tokens": {self.TOKENS}}}\n'
                        + line.replace("T", self.TOKENS) + "\n")
        out = tmp_path / "run"
        assert main([command[0], str(path), *command[1:], "--out-dir", str(out),
                     *SMALL_FLAGS]) == 1
        assert capsys.readouterr().err == (f"error: {path}:2: malformed JSON: "
                                           f"name {name!r} given twice\n")
        assert not out.exists()

    def test_config_file_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"alpha": 0.1, "alpha": 0.9}')
        out = tmp_path / "run"
        assert main(["pipeline", str(token_corpus(tmp_path)), "--config", str(cfg),
                     "--out-dir", str(out), *SMALL_FLAGS]) == 1
        assert capsys.readouterr().err == (f"error: cannot read config file {cfg}: "
                                           "name 'alpha' given twice\n")
        assert not out.exists()

    def test_flag_exits_one(self, tmp_path, capsys):
        value = '{"a": 1, "a": 2}'
        assert main(["segment", str(token_corpus(tmp_path)), f"--middle-seed={value}"]) == 1
        assert capsys.readouterr().err == f"error: --middle-seed {value!r}: not a JSON value\n"


class TestFileNameCollisions:
    """Two ids that sanitize to one file name exit 1 before any write, naming both."""

    def corpus(self, tmp_path: Path) -> Path:
        return write_corpus(tmp_path / "c.jsonl", [
            {"id": "a/b", "tokens": [1, 2, 3]},
            {"id": "other", "tokens": [4, 5, 6]},
            {"id": "a_b", "tokens": [7, 8, 9]},
        ])

    @pytest.mark.parametrize("command", [["pipeline"], ["segment", "--include-tokens"]])
    def test_exits_one_naming_both_ids_and_lines(self, tmp_path, capsys, monkeypatch,
                                                 command):
        windows = count_encoded_windows(monkeypatch)
        path = self.corpus(tmp_path)
        out = tmp_path / "run"
        assert main([command[0], str(path), *command[1:], "--out-dir", str(out),
                     *SMALL_FLAGS]) == 1
        assert capsys.readouterr().err == (f"error: {path}:1: document 'a/b' and {path}:3: "
                                           "document 'a_b' both write to file name 'a_b'\n")
        assert windows == []
        assert not out.exists()

    def test_dot_ids_stay_inside_their_own_directories(self, tmp_path):
        path = write_corpus(tmp_path / "c.jsonl", [
            {"id": ".", "tokens": [1, 2, 3]},
            {"id": "..", "tokens": [4, 5, 6]},
        ])
        out = tmp_path / "run"
        assert main(["pipeline", str(path), "--out-dir", str(out), *SMALL_FLAGS]) == 0
        assert sorted(p.name for p in out.iterdir()) == \
            ["config.json", "config_hash.txt", "docs", "run_meta.json"]
        assert sorted(p.name for p in (out / "docs").iterdir()) == ["_", "__"]
        for name in ("_", "__"):
            assert sorted(p.name for p in (out / "docs" / name).iterdir()) == [
                "attention_mass.csv", "decode_demo.json", "fused_manifest.json",
                "fused_matrix.txt", "segments.json"]

    def test_dot_id_collides_with_underscores(self, tmp_path, capsys):
        path = write_corpus(tmp_path / "c.jsonl", [
            {"id": "..", "tokens": [1, 2, 3]},
            {"id": "__", "tokens": [4, 5, 6]},
        ])
        out = tmp_path / "run"
        assert main(["pipeline", str(path), "--out-dir", str(out), *SMALL_FLAGS]) == 1
        err = capsys.readouterr().err
        assert f"{path}:1: document '..'" in err and f"{path}:2: document '__'" in err
        assert not out.exists()

    def test_segment_to_stdout_keeps_both(self, tmp_path, capsys):
        assert main(["segment", str(self.corpus(tmp_path)), *SMALL_FLAGS]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["id"] for line in lines] == ["a/b", "other", "a_b"]


class TestFileNameLength:
    """An id whose file name would pass 255 bytes exits 1 before any encode, naming it."""

    # the command, its longest id, and the file or directory that id writes
    CASES = [(["pipeline"], 255, "docs/{}"), (["segment"], 241, "{}.segments.json")]

    @pytest.mark.parametrize("command,longest,written", CASES, ids=["pipeline", "segment"])
    def test_longest_id_runs(self, tmp_path, command, longest, written):
        doc_id = "b" * longest
        path = write_corpus(tmp_path / "c.jsonl", [{"id": doc_id, "tokens": [1, 2, 3, 4]}])
        out = tmp_path / "run"
        assert main([*command, str(path), "--out-dir", str(out), *SMALL_FLAGS]) == 0
        assert (out / written.format(doc_id)).exists()

    @pytest.mark.parametrize("command,longest,written", CASES, ids=["pipeline", "segment"])
    def test_one_byte_more_exits_one_naming_the_document(self, tmp_path, capsys, monkeypatch,
                                                         command, longest, written):
        windows = count_encoded_windows(monkeypatch)
        doc_id = "b" * (longest + 1)
        path = write_corpus(tmp_path / "c.jsonl", [
            {"id": "first", "tokens": [1, 2, 3]},
            {"id": doc_id, "tokens": [1, 2, 3, 4]},
        ])
        out = tmp_path / "run"
        assert main([*command, str(path), "--out-dir", str(out), *SMALL_FLAGS]) == 1
        assert capsys.readouterr().err == (f"error: {path}:2: document {doc_id!r}: "
                                           "256-byte file name, over 255\n")
        assert windows == []
        assert not out.exists()


class TestCorpusChecks:
    """Per-document checks against the config run before anything is written."""

    COMMANDS = {
        "pipeline": lambda path: ["pipeline", str(path)],
        "ablate": lambda path: ["ablate", str(path), "--axis", "alpha", "--values", "0.5"],
    }

    def _rejects(self, tmp_path, capsys, command, docs, flags) -> str:
        path = write_corpus(tmp_path / "c.jsonl", docs)
        out = tmp_path / "run"
        argv = [*self.COMMANDS[command](path), "--out-dir", str(out), *SMALL_FLAGS, *flags]
        assert main(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{path}:2:" in err and "'short'" in err
        return err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_document_shorter_than_boundary_block(self, tmp_path, capsys, command):
        docs = [{"id": "a", "tokens": list(range(12))}, {"id": "short", "tokens": [5]}]
        err = self._rejects(tmp_path, capsys, command, docs, ["--boundary-width", "2"])
        label = " at alpha 0.5" if command == "ablate" else ""
        assert err == (f"error: {tmp_path / 'c.jsonl'}:2: document 'short'{label}: "
                       "1 tokens, fewer than boundary_width 2\n")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_token_id_outside_vocab(self, tmp_path, capsys, command):
        docs = [{"id": "a", "tokens": [1, 2, 3]}, {"id": "short", "tokens": [1, 9, 3]}]
        err = self._rejects(tmp_path, capsys, command, docs, ["--vocab-size", "4"])
        assert "token id 9" in err

    def test_ablate_names_the_sweep_value_with_too_few_chunks(self, tmp_path, capsys):
        # 16 tokens in 8-token windows: 3 chunks at overlap 4, 2 at overlap 0
        docs = [{"id": "a", "tokens": list(range(30))}, {"id": "short", "tokens": list(range(16))}]
        err = self._rejects(tmp_path, capsys, "ablate", docs,
                            ["--axis", "overlap", "--values", "4,0"])
        assert "at overlap 0" in err and "at least 3 chunks, got 2" in err


class TestConfigLayers:
    def test_flag_overrides_env_overrides_file(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"chunk_len": 2048, "overlap": 10}))
        monkeypatch.setenv("CHUNKFUSE_OVERLAP", "20")
        corpus = token_corpus(tmp_path)

        import chunkfuse.cli as cli_mod
        parser = cli_mod._build_parser()
        args = parser.parse_args(["segment", str(corpus),
                                  "--config", str(cfg_file), "--chunk-len", "1000"])
        cfg = build_config(args)
        assert cfg.chunk_len == 1000    # flag wins
        assert cfg.overlap == 20        # env beats file
        assert cfg.alpha == 0.5         # default untouched

    @pytest.mark.parametrize("field, value", [("alpha", "1"), ("alpha", "0"),
                                              ("middle_seed", "3")])
    def test_file_env_and_flag_spellings_write_identical_runs(self, tmp_path, monkeypatch,
                                                              field, value):
        # a config file's 1, CHUNKFUSE_ALPHA=1 and --alpha 1 all mean alpha 1.0
        corpus = token_corpus(tmp_path)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({field: int(value)}))
        flag = "--" + field.replace("_", "-")
        argv = ["pipeline", str(corpus), *SMALL_FLAGS]
        trees = []
        for spelling in ("file", "env", "flag"):
            out = tmp_path / spelling
            with monkeypatch.context() as patch:
                extra = {"file": ["--config", str(cfg_file)], "env": [],
                         "flag": [flag, value]}[spelling]
                if spelling == "env":
                    patch.setenv("CHUNKFUSE_" + field.upper(), value)
                assert main([*argv, *extra, "--out-dir", str(out)]) == 0
            trees.append(read_tree(out))
        assert trees[0] == trees[1] == trees[2]
        written = json.loads(trees[0]["config.json"])[field]
        assert written == int(value) and isinstance(written, float) == (field == "alpha")

    # past 308 digits no float holds the int; past 4300 Python does not parse it
    @pytest.mark.parametrize("digits, named", [(400, "error: alpha 1000"),
                                               (5000, "error: cannot read config file")])
    def test_int_too_large_for_a_float_field_exits_one(self, tmp_path, capsys, digits, named):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"alpha": 1' + "0" * (digits - 1) + "}")
        out = tmp_path / "run"
        rc = main(["pipeline", str(token_corpus(tmp_path)), "--config", str(cfg_file),
                   "--out-dir", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(named) and "Traceback" not in err
        assert not out.exists()

    def test_null_flag_unsets_a_file_middle_seed(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"middle_seed": 9}))
        args = _build_parser().parse_args(["segment", str(token_corpus(tmp_path)),
                                           "--config", str(cfg_file), "--middle-seed", "null"])
        assert build_config(args).middle_seed is None

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus": 1}))
        corpus = token_corpus(tmp_path)
        rc = main(["segment", str(corpus), "--config", str(cfg_file)])
        assert rc == 1

    # every draw reads a seed modulo 2**64, so -1 would write the run of 2**64 - 1
    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--seed", str(2**64)),
                                             ("--middle-seed", "-1"),
                                             ("--middle-seed", str(2**64))])
    def test_seed_outside_64_bits_exits_one(self, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        rc = main(["pipeline", str(token_corpus(tmp_path)), "--out-dir", str(out),
                   *SMALL_FLAGS, flag, value])
        assert rc == 1
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == (
            f"error: {field} must lie in [0, 2**64), got {value}\n")
        assert not out.exists()

    def test_invalid_alpha_exits_one(self, tmp_path, capsys):
        rc = main(["segment", str(token_corpus(tmp_path)), "--alpha", "2"])
        assert rc == 1
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("file_values, named", [
        ({"middle_seed": "7"}, "middle_seed must be"),
        ({"alpha": True}, "alpha must be"),
        ({"chunk_len": "64", "overlap": 16}, "chunk_len must be"),
        ({"chunk_len": 64.0, "overlap": 16}, "chunk_len must be"),
        (["alpha"], "cfg.json must hold a JSON object"),
        (5, "cfg.json must hold a JSON object"),
    ])
    def test_mistyped_config_file_rejected_before_writing(self, tmp_path, capsys,
                                                          file_values, named):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(file_values))
        out = tmp_path / "run"
        rc = main(["pipeline", str(token_corpus(tmp_path)), "--config", str(cfg_file),
                   "--out-dir", str(out)])
        assert rc == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestSegmentCommand:
    def test_stdout_json(self, tmp_path, capsys):
        rc = main(["segment", str(token_corpus(tmp_path)),
                   "--chunk-len", "4", "--overlap", "2", "--middle-count", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["L"] == 4 and first["O"] == 2 and first["id"] == "alpha"
        assert [s["start"] for s in first["segments"]] == [0, 2, 4, 6]

    def test_rerun_into_its_own_out_dir_exits_one(self, tmp_path, capsys):
        out = tmp_path / "seg"
        assert main(["segment", str(CORPORA / "tiny_tokens.jsonl"), "--include-tokens",
                     "--out-dir", str(out)]) == 0
        before = read_tree(out)
        assert sorted(before) == [f"synth-{i}.segments.json" for i in (1, 2, 3)]
        one = write_corpus(tmp_path / "one.jsonl", [{"id": "synth-1", "tokens": [1, 2, 3]}])
        capsys.readouterr()
        assert main(["segment", str(one), "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out-dir {out} exists and is not an empty directory\n"
        assert read_tree(out) == before


class TestPipelineCommand:
    def test_artifacts_and_expected_rows(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "one.jsonl",
                              [{"id": "d1", "tokens": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]}])
        out = tmp_path / "run"
        rc = main(["pipeline", str(corpus), "--out-dir", str(out),
                   "--chunk-len", "4", "--overlap", "2", "--boundary-width", "1",
                   "--middle-count", "1", "--d-model", "16", "--n-heads", "2",
                   "--n-layers", "1", "--d-ff", "32", "--vocab-size", "32",
                   "--seed", "5"])
        assert rc == 0
        manifest = json.loads((out / "docs" / "d1" / "fused_manifest.json").read_text())
        # four windows, three rows each
        assert manifest["rows"] == 4 * 3
        matrix_header = (out / "docs" / "d1" / "fused_matrix.txt").read_text().splitlines()[0]
        assert matrix_header == "12 16"
        assert (out / "config_hash.txt").read_text().strip()
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["documents"] == ["d1"]
        demo = json.loads((out / "docs" / "d1" / "decode_demo.json").read_text())
        assert len(demo["generated"]) == 16
        mass_rows = (out / "docs" / "d1" / "attention_mass.csv").read_text().splitlines()
        assert mass_rows[0] == "chunk,mass"
        assert len(mass_rows) == 1 + 4  # header + one row per chunk
        assert sum(float(r.split(",")[1]) for r in mass_rows[1:]) == pytest.approx(1.0)

    def test_empty_corpus_warns_and_succeeds(self, tmp_path, capsys):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        rc = main(["pipeline", str(corpus), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert "no documents" in capsys.readouterr().err

    def test_reruns_byte_identical(self, tmp_path):
        corpus = token_corpus(tmp_path)
        args = ["pipeline", str(corpus), *SMALL_FLAGS]
        assert main([*args, "--out-dir", str(tmp_path / "r1")]) == 0
        assert main([*args, "--out-dir", str(tmp_path / "r2")]) == 0
        assert read_tree(tmp_path / "r1") == read_tree(tmp_path / "r2")

    # a rerun of the same corpus is a case of TestAllOrNothingRuns
    @pytest.mark.parametrize("rerun", ["fewer-documents", "out-dir-default"])
    def test_rerun_into_a_non_empty_out_dir_exits_one(self, tmp_path, capsys, monkeypatch,
                                                      rerun):
        corpus = token_corpus(tmp_path)
        out = tmp_path / "run"
        argv = ["pipeline", str(corpus), *SMALL_FLAGS]
        if rerun == "out-dir-default":
            monkeypatch.chdir(tmp_path)
            out = tmp_path / "chunkfuse-run"
        else:
            argv += ["--out-dir", str(out)]
        assert main(argv) == 0
        before = read_tree(out)
        if rerun == "fewer-documents":
            argv[1] = str(write_corpus(tmp_path / "one.jsonl",
                                       [{"id": "beta", "tokens": [3, 1, 4]}]))
        windows = count_encoded_windows(monkeypatch)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out.name) in err and "not an empty" in err
        assert read_tree(out) == before
        assert windows == []

    def test_corpus_error_is_named_before_a_non_empty_out_dir(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "old.txt").write_text("keep\n")
        corpus = write_corpus(tmp_path / "bad.jsonl", [{"id": "a", "tokens": [1, 99]}])
        assert main(["pipeline", str(corpus), "--out-dir", str(out), *SMALL_FLAGS]) == 1
        err = capsys.readouterr().err
        assert f"{corpus}:1:" in err and "not an empty" not in err
        assert read_tree(out) == {"old.txt": b"keep\n"}

    def test_corpus_order_does_not_change_document_bytes(self, tmp_path):
        docs = [{"id": name, "tokens": [(7 * i + len(name)) % 64 for i in range(30)]}
                for name in ("first", "second", "third")]
        for name, order in (("fwd", docs), ("rev", docs[::-1])):
            corpus = write_corpus(tmp_path / f"{name}.jsonl", order)
            assert main(["pipeline", str(corpus), "--out-dir", str(tmp_path / name),
                         *SMALL_FLAGS]) == 0
        assert read_tree(tmp_path / "fwd" / "docs") == read_tree(tmp_path / "rev" / "docs")

    def test_token_id_above_vocab(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "big.jsonl",
                              [{"id": "a", "tokens": [999999]}])
        rc = main(["pipeline", str(corpus), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert "vocab" in capsys.readouterr().err

    def test_text_corpus_auto_vocab(self, tmp_path):
        corpus = write_corpus(tmp_path / "txt.jsonl", [
            {"id": "a", "text": "b c d e f g h i j k l m"},
        ])
        out = tmp_path / "trun"
        rc = main(["pipeline", str(corpus), "--out-dir", str(out), *SMALL_FLAGS])
        assert rc == 0
        assert json.loads((out / "vocab.json").read_text())["b"] == 0


class TestAllOrNothingRuns:
    """A run appears whole or not at all: one that fails leaves ``--out-dir`` as it was."""

    @staticmethod
    def fail_call(monkeypatch, name, exc, nth):
        import chunkfuse.cli as cli_mod
        real, calls = getattr(cli_mod, name), []

        def nth_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == nth:
                raise exc
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod, name, nth_fails)

    # each subcommand reruns into its own out-dir, and each other one into a pipeline run
    @pytest.mark.parametrize("earlier, command", [
        *[(command, command) for command in sorted(OUT_DIR_RUNS)],
        *[("pipeline", command) for command in sorted(OUT_DIR_RUNS) if command != "pipeline"],
    ])
    def test_rerun_into_a_used_out_dir_exits_one(self, tmp_path, capsys, monkeypatch,
                                                 earlier, command):
        out = tmp_path / "run"
        assert main([*OUT_DIR_RUNS[earlier](tmp_path), "--out-dir", str(out)]) == 0
        before = read_tree(out)
        assert before
        argv = [*OUT_DIR_RUNS[command](tmp_path), "--out-dir", str(out)]
        windows = count_encoded_windows(monkeypatch)
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out-dir {out} exists and is not an empty directory\n"
        assert read_tree(out) == before
        assert windows == []

    @pytest.mark.parametrize("command", sorted(OUT_DIR_RUNS))
    def test_empty_out_dir_is_run_into(self, tmp_path, monkeypatch, command):
        import chunkfuse.pipeline as pipeline_mod
        argv = OUT_DIR_RUNS[command](tmp_path)
        (tmp_path / "empty").mkdir()
        for name in ("empty", "fresh"):
            # a clock that ticks once per read gives both runs the same wall-clock columns
            monkeypatch.setattr(pipeline_mod, "time",
                                SimpleNamespace(perf_counter=itertools.count().__next__))
            assert main([*argv, "--out-dir", str(tmp_path / name)]) == 0
        assert read_tree(tmp_path / "empty") == read_tree(tmp_path / "fresh")
        assert read_tree(tmp_path / "fresh")

    @pytest.mark.parametrize("exc, code", [(RuntimeError("wired for the test"), 2),
                                           (InputError("wired for the test"), 1),
                                           (KeyboardInterrupt(), None)],
                             ids=["RuntimeError", "InputError", "KeyboardInterrupt"])
    @pytest.mark.parametrize("existing", [False, True], ids=["absent", "empty"])
    def test_pipeline_failing_on_document_two(self, tmp_path, monkeypatch, capsys,
                                              exc, code, existing):
        corpus = token_corpus(tmp_path)
        out = tmp_path / "run"
        if existing:
            out.mkdir()
        before = sorted(os.listdir(tmp_path))
        self.fail_call(monkeypatch, "run_document", exc, nth=2)
        argv = ["pipeline", str(corpus), "--out-dir", str(out), *SMALL_FLAGS]
        if code is None:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == code
            assert "wired for the test" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before
        assert not existing or list(out.iterdir()) == []

    def test_segment_failing_on_its_second_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "seg"
        self.fail_call(monkeypatch, "_write_json", OSError("disk full, wired for the test"),
                       nth=2)
        assert main(["segment", str(CORPORA / "tiny_tokens.jsonl"), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: disk full, wired for the test\n"
        assert os.listdir(tmp_path) == []

    def test_bench_failing_on_verdict_json_leaves_no_scaling_csv(self, tmp_path, monkeypatch,
                                                                  capsys):
        out = tmp_path / "bench"
        self.fail_call(monkeypatch, "_write_json", OSError("disk full, wired for the test"),
                       nth=1)
        assert main([*OUT_DIR_RUNS["bench"](tmp_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.endswith("error: disk full, wired for the test\n")
        assert os.listdir(tmp_path) == []

    def test_out_dir_filled_during_the_run_exits_one(self, tmp_path, monkeypatch, capsys):
        # os.replace does not swap out a directory that is no longer empty
        import chunkfuse.cli as cli_mod
        corpus = token_corpus(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        real = cli_mod.run_document

        def and_a_stray_file(*args, **kwargs):
            (out / "stray.txt").write_text("late\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "run_document", and_a_stray_file)
        assert main(["pipeline", str(corpus), "--out-dir", str(out), *SMALL_FLAGS]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl", "run"]
        assert read_tree(out) == {"stray.txt": b"late\n"}

    def test_symlinked_out_dir_is_run_into_its_target(self, tmp_path):
        corpus = token_corpus(tmp_path)
        args = ["pipeline", str(corpus), *SMALL_FLAGS]
        (tmp_path / "target").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "target", target_is_directory=True)
        assert main([*args, "--out-dir", str(tmp_path / "link")]) == 0
        assert main([*args, "--out-dir", str(tmp_path / "fresh")]) == 0
        assert (tmp_path / "link").is_symlink()
        assert read_tree(tmp_path / "target") == read_tree(tmp_path / "fresh")
        assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl", "fresh", "link", "target"]

    def test_symlink_loop_out_dir_exits_one(self, tmp_path, capsys):
        (tmp_path / "a").symlink_to(tmp_path / "b")
        (tmp_path / "b").symlink_to(tmp_path / "a")
        assert main(["segment", str(CORPORA / "tiny_tokens.jsonl"),
                     "--out-dir", str(tmp_path / "a")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["a", "b"]

    @pytest.mark.parametrize("command", sorted(OUT_DIR_RUNS))
    def test_out_dir_gets_the_mode_of_a_plain_mkdir(self, tmp_path, command):
        umask = os.umask(0o022)  # a umask under which mkdtemp's 0700 would show
        try:
            (tmp_path / "plain").mkdir()
            assert main([*OUT_DIR_RUNS[command](tmp_path), "--out-dir",
                         str(tmp_path / "run")]) == 0
        finally:
            os.umask(umask)
        assert (tmp_path / "run").stat().st_mode == (tmp_path / "plain").stat().st_mode

    @pytest.mark.parametrize("command", ["pipeline", "segment"])
    def test_out_dir_name_of_250_bytes_is_run_into(self, tmp_path, command):
        # the staging directory beside it must not lengthen a valid name past 255 bytes
        out = tmp_path / ("o" * 250)
        assert main([*OUT_DIR_RUNS[command](tmp_path), "--out-dir", str(out)]) == 0
        assert read_tree(out)
        assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl", out.name]

    @pytest.mark.parametrize("command", ["pipeline", "segment"])
    def test_empty_corpus_creates_nothing(self, tmp_path, capsys, command):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        assert main([command, str(corpus), "--out-dir", str(tmp_path / "out")]) == 0
        assert os.listdir(tmp_path) == ["empty.jsonl"]

    @pytest.mark.parametrize("command", ["pipeline", "segment"])
    def test_empty_corpus_exits_zero_before_the_out_dir_check(self, tmp_path, command):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        (tmp_path / "used").mkdir()
        (tmp_path / "used" / "old.txt").write_text("keep\n")
        assert main([command, str(corpus), "--out-dir", str(tmp_path / "used")]) == 0
        assert read_tree(tmp_path / "used") == {"old.txt": b"keep\n"}

    @pytest.mark.parametrize("used", [False, True])
    def test_ablate_empty_corpus_exits_one_naming_it_before_any_work(self, tmp_path, capsys,
                                                                       monkeypatch, used):
        monkeypatch.setattr("chunkfuse.cli.init_weights",
                            lambda cfg: pytest.fail("ablate drew weights for no documents"))
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        if used:
            (tmp_path / "out").mkdir()
            (tmp_path / "out" / "old.txt").write_text("keep\n")
        before = read_tree(tmp_path)
        assert main(["ablate", str(corpus), "--axis", "alpha", "--values", "0.5",
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            f"error: corpus {corpus} holds no documents; the probe needs one\n"
        assert read_tree(tmp_path) == before
        assert (tmp_path / "out").exists() == used


# the README config on one 50k-token document: about 1k chunks and a 10k-row memory
BLAS_FLAGS = ["--chunk-len", "64", "--overlap", "16", "--boundary-width", "2",
              "--middle-count", "6", "--d-model", "32", "--n-heads", "4", "--n-layers", "2",
              "--d-ff", "64", "--vocab-size", "128", "--seed", "7"]


# OpenBLAS runs no more threads than the cores this process may use
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif((CORES or 1) < 2, reason="one core runs one BLAS thread")
def test_run_tree_does_not_depend_on_the_blas_thread_count(tmp_path):
    from chunkfuse.metrics import make_random_doc
    corpus = write_corpus(tmp_path / "long.jsonl",
                          [{"id": "doc-0000", "tokens": list(make_random_doc(50_000, 128, 3))}])
    src = str(Path(__file__).resolve().parents[1] / "src")
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "chunkfuse.cli", "pipeline", str(corpus), "--out-dir",
             str(out), *BLAS_FLAGS], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        trees.append(read_tree(out))
    manifest = json.loads(trees[0]["docs/doc-0000/fused_manifest.json"])
    assert manifest["rows"] >= 10_000
    assert sorted(trees[0]) == sorted(trees[1])
    assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []


class TestRougeCommand:
    def test_identical_files_score_one(self, tmp_path, capsys):
        cand = tmp_path / "c.txt"
        cand.write_text("the cat sat\na b c\n")
        rc = main(["rouge", str(cand), str(cand)])
        assert rc == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        assert rows[0] == ["line", "rouge1_f1", "rouge2_f1", "rougeL_f1"]
        assert rows[-1][0] == "mean"
        assert [float(v) for v in rows[-1][1:]] == [1.0, 1.0, 1.0]

    # a line ends at \\n, \\r\\n or \\r only, as a corpus line does; str.splitlines
    # also ended one at U+2028 and at a form feed
    @pytest.mark.parametrize("cand, ref", [("the cat\u2028sat\nb c\n", "the cat sat\nb c\n"),
                                           ("the\x0ccat\nb c\n", "the\x0ccat\nb\n"),
                                           ("a b\r\nc\rd e\n", "a b\nc\nd e")],
                             ids=["U+2028", "form-feed", "CR"])
    def test_one_row_per_line_of_the_file(self, tmp_path, capsys, cand, ref):
        paths = tmp_path / "c.txt", tmp_path / "r.txt"
        for path, text in zip(paths, (cand, ref)):
            path.write_bytes(text.encode("utf-8"))
        assert main(["rouge", *map(str, paths)]) == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().split("\n")))
        lines = len(ref.split("\n")) - ref.endswith("\n")
        assert [row[0] for row in rows] == ["line", *map(str, range(1, lines + 1)), "mean"]
        assert [float(v) for v in rows[1][1:]] == [1.0, 1.0, 1.0]

    def test_non_utf8_byte_names_file_and_line(self, tmp_path, capsys):
        cand, ref = tmp_path / "c.txt", tmp_path / "r.txt"
        cand.write_text("a b\nc d\n")
        ref.write_bytes(b"a b\nc \xff d\n")
        assert main(["rouge", str(cand), str(ref)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {ref}:2: not UTF-8: ")

    def test_length_mismatch_names_both_counts(self, tmp_path, capsys):
        cand = tmp_path / "c.txt"
        ref = tmp_path / "r.txt"
        cand.write_text("a\nb\n")
        ref.write_text("a\n")
        rc = main(["rouge", str(cand), str(ref)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "2" in err and "1" in err

    def test_length_mismatch_names_both_files_with_their_counts(self, tmp_path, capsys):
        cand, ref = tmp_path / "c.txt", tmp_path / "r.txt"
        cand.write_text("a\nb\nc\n")
        ref.write_text("a\n")
        assert main(["rouge", str(cand), str(ref)]) == 1
        assert capsys.readouterr().err == (f"error: line count mismatch: candidates {cand} "
                                           f"has 3 lines, references {ref} has 1\n")


class TestAblateCommand:
    def test_alpha_sweep_row_count(self, tmp_path, capsys):
        corpus = identical_chunk_corpus(tmp_path)
        values = ",".join(str(v / 10) for v in range(11))
        rc = main(["ablate", str(corpus), "--axis", "alpha", "--values", values,
                   *SMALL_FLAGS])
        assert rc == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        assert len(rows) == 12  # header + 11 values
        assert rows[0] == ["alpha", "probe_mse", "scale_rows", "fuse_seconds"]

    def test_alpha_one_has_max_probe_mse(self, tmp_path, capsys):
        corpus = identical_chunk_corpus(tmp_path)
        rc = main(["ablate", str(corpus), "--axis", "alpha",
                   "--values", "0.0,0.5,1.0", *SMALL_FLAGS])
        assert rc == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))[1:]
        mses = {float(r[0]): float(r[1]) for r in rows}
        assert mses[1.0] == max(mses.values())
        assert mses[0.5] < mses[1.0]

    def test_overlap_sweep_and_invalid_value_rejected(self, tmp_path, capsys):
        corpus = identical_chunk_corpus(tmp_path)
        argv = ["ablate", str(corpus), "--axis", "overlap", *SMALL_FLAGS]
        assert main([*argv, "--values", "2,4"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        assert len(rows) == 3  # header + two overlaps
        assert main([*argv, "--values", "2,4,99"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--values entry '99'" in captured.err

    def test_invalid_value_rejected_in_any_position(self, tmp_path, capsys):
        corpus = identical_chunk_corpus(tmp_path)
        at = SMALL_FLAGS.index("--middle-count")
        flags = SMALL_FLAGS[:at] + SMALL_FLAGS[at + 2:]  # middle_count stays 300
        errors = {}
        for values in ("300,4", "4,300"):
            assert main(["ablate", str(corpus), "--axis", "middle-count",
                         "--values", values, *flags]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors[values] = captured.err
        assert errors["300,4"] == errors["4,300"]
        assert "--values entry '300'" in errors["4,300"]

    def test_alpha_sweep_encodes_each_chunk_once(self, tmp_path, capsys, monkeypatch):
        windows = count_encoded_windows(monkeypatch)
        corpus = identical_chunk_corpus(tmp_path)  # two documents of 4 chunks
        assert main(["ablate", str(corpus), "--axis", "alpha", "--values", "0.0,0.5,1.0",
                     *SMALL_FLAGS]) == 0
        assert len(windows) == 2 * 4

    def test_overlap_sweep_encodes_each_chunk_once_per_value(self, tmp_path, capsys,
                                                             monkeypatch):
        from chunkfuse.segmenter import segment_count
        windows = count_encoded_windows(monkeypatch)
        corpus = identical_chunk_corpus(tmp_path)
        docs, _ = load_corpus(corpus)
        assert main(["ablate", str(corpus), "--axis", "overlap", "--values", "2,4,2",
                     *SMALL_FLAGS]) == 0
        expected = [segment_count(len(tokens), 8, overlap)
                    for overlap in (2, 4, 2) for _, tokens in docs]
        assert expected == [4, 4, 6, 6, 4, 4]
        assert len(windows) == sum(expected)

    # the merged config is SMALL_FLAGS; each axis sweeps three of its values
    @pytest.mark.parametrize("axis, values", [("alpha", "0.0,0.5,1.0"),
                                              ("overlap", "2,4,0"),
                                              ("middle-count", "2,0,4")])
    def test_columns_match_a_per_variant_oracle(self, tmp_path, capsys, axis, values):
        from dataclasses import replace

        from oracles import sweep_per_variant

        from chunkfuse.encoder import init_weights
        from chunkfuse.metrics import position_probe
        from chunkfuse.pipeline import PipelineConfig
        corpus = identical_chunk_corpus(tmp_path)
        assert main(["ablate", str(corpus), "--axis", axis, "--values", values,
                     *SMALL_FLAGS]) == 0
        printed = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        assert printed[0] == [axis, "probe_mse", "scale_rows", "fuse_seconds"]
        cfg = PipelineConfig(chunk_len=8, overlap=2, boundary_width=1, middle_count=2,
                             d_model=16, n_heads=2, n_layers=1, d_ff=32, vocab_size=64,
                             seed=5)
        field = axis.replace("-", "_")
        variants = [replace(cfg, **{field: type(getattr(cfg, field))(raw)})
                    for raw in values.split(",")]
        docs, _ = load_corpus(corpus)
        memories = sweep_per_variant(docs, variants, init_weights(cfg.encoder_config()))
        assert [row[:3] for row in printed[1:]] == [
            [repr(getattr(variant, field)), repr(position_probe(runs)),
             str(sum(run.rows for run in runs))]
            for variant, runs in zip(variants, memories)]


class TestBenchCommand:
    def test_small_bench_emits_verdict(self, tmp_path, capsys):
        rc = main(["bench", "--lengths", "256,512,1024,2048", "--repeats", "1",
                   "--chunk-len", "64", "--overlap", "16", "--middle-count", "4",
                   "--d-model", "8", "--n-heads", "2", "--n-layers", "1",
                   "--d-ff", "16", "--vocab-size", "32"])
        assert rc == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        verdict = json.loads(out_lines[-1])
        assert set(verdict) == {"slope", "pass"}
        rows = list(csv.reader(out_lines[:-1]))
        assert rows[0][0] == "N" and len(rows) == 5

    def test_out_dir_writes_scaling_csv_and_verdict(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main(["bench", "--lengths", "256,512,1024,2048", "--repeats", "1",
                   "--chunk-len", "64", "--overlap", "16", "--middle-count", "4",
                   "--d-model", "8", "--n-heads", "2", "--n-layers", "1",
                   "--d-ff", "16", "--vocab-size", "32", "--out-dir", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 1
        with open(out / "scaling.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "C", "encode_s", "fuse_s", "total_s", "scale_rows",
                           "naive_rows"]
        assert [row[0] for row in rows[1:]] == ["256", "512", "1024", "2048"]
        assert json.loads((out / "verdict.json").read_text()) == json.loads(printed[0])


class TestProbeCommand:
    def test_probe_csv(self, tmp_path, capsys):
        rc = main(["probe", "--alphas", "0.5,1.0", "--n-chunks", "4",
                   "--n-docs", "2", *SMALL_FLAGS])
        assert rc == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        assert rows[0] == ["alpha", "probe_mse"]
        assert len(rows) == 3
        assert float(rows[1][1]) < float(rows[2][1])

    def test_matches_independent_runs(self, capsys):
        # every alpha fuses the same kept rows; an in-place fuse would carry
        # one alpha's blend into the next
        from oracles import probe_runs

        from chunkfuse.metrics import make_repeated_chunk_doc, position_probe
        from chunkfuse.pipeline import PipelineConfig
        assert main(["probe", "--alphas", "0.0,0.5,1.0", "--n-chunks", "4",
                     "--n-docs", "2", *SMALL_FLAGS]) == 0
        printed = list(csv.reader(capsys.readouterr().out.strip().splitlines()))[1:]
        cfg = PipelineConfig(chunk_len=8, overlap=2, boundary_width=1, middle_count=2,
                             d_model=16, n_heads=2, n_layers=1, d_ff=32, vocab_size=64,
                             seed=5)
        docs = [make_repeated_chunk_doc(4, 8, 2, 64, 11 + i) for i in range(2)]
        assert printed == [[repr(alpha), repr(position_probe(probe_runs(docs, alpha, cfg)))]
                           for alpha in (0.0, 0.5, 1.0)]

    def test_encodes_each_chunk_once(self, tmp_path, capsys, monkeypatch):
        windows = count_encoded_windows(monkeypatch)
        assert main(["probe", "--alphas", "0.0,0.5,1.0", "--n-chunks", "4",
                     "--n-docs", "2", *SMALL_FLAGS]) == 0
        assert len(windows) == 2 * 4

    def test_base_alpha_is_not_run(self, capsys):
        # as in ablate, each --alphas entry replaces the merged config's alpha
        argv = ["probe", "--alphas", "0,1", "--n-chunks", "4", "--n-docs", "1", *SMALL_FLAGS]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        assert main([*argv, "--alpha", "3"]) == 0
        assert capsys.readouterr().out == expected

    # every draw reads its seed modulo 2**64, so -1 would write the probe of 2**64 - 1
    @pytest.mark.parametrize("doc_seed, n_docs", [(-1, 1), (2**64, 1), (2**64 - 1, 2)])
    def test_doc_seed_outside_64_bits_exits_one(self, tmp_path, capsys, monkeypatch,
                                                doc_seed, n_docs):
        windows = count_encoded_windows(monkeypatch)
        out = tmp_path / "run"
        assert main(["probe", "--doc-seed", str(doc_seed), "--n-docs", str(n_docs),
                     "--n-chunks", "4", "--out-dir", str(out), *SMALL_FLAGS]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --doc-seed {doc_seed}: ") and "[0, 2**64)" in err
        assert windows == []
        assert not out.exists()

    def test_largest_doc_seeds_are_run(self, capsys):
        assert main(["probe", "--doc-seed", str(2**64 - 2), "--n-docs", "2",
                     "--n-chunks", "4", *SMALL_FLAGS]) == 0

    def test_reads_no_corpus(self, tmp_path, capsys):
        # a corpus sweep over alpha is `ablate --axis alpha`
        assert main(["probe", "--corpus", str(token_corpus(tmp_path))]) == 1
        assert "unrecognized arguments: --corpus" in capsys.readouterr().err


class TestListAndCountFlags:
    """A bad list entry or count exits 1, naming the flag and the entry, before any work."""

    @pytest.mark.parametrize("command, flag, value, entry", [
        (["probe"], "--alphas", "0.5,abc", "abc"),
        (["probe"], "--alphas", "", ""),
        (["probe"], "--alphas", "2.0", "2.0"),
        (["bench"], "--lengths", "1,x", "x"),
        (["bench"], "--lengths", "0,8,16,32", "0"),
        (["bench"], "--lengths", "2,8,16,32", "2"),  # below 2*boundary_width + middle_count
        (["bench"], "--repeats", "0", "0"),
        (["probe"], "--n-chunks", "0", "0"),
        (["probe"], "--n-chunks", "2", "2"),
        (["probe"], "--n-docs", "-2", "-2"),
        (["ablate", "CORPUS", "--axis", "alpha"], "--values", "x,0.5", "x"),
        (["ablate", "CORPUS", "--axis", "alpha"], "--values", "0.5,2.0", "2.0"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_bad_entry_exits_one_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                 command, flag, value, entry):
        windows = count_encoded_windows(monkeypatch)
        corpus = str(token_corpus(tmp_path))
        argv = [corpus if a == "CORPUS" else a for a in command]
        out = tmp_path / "run"
        assert main([*argv, flag, value, "--out-dir", str(out), *SMALL_FLAGS]) == 1
        err = capsys.readouterr().err
        assert flag in err and repr(entry) in err
        assert "Traceback" not in err
        assert windows == []
        assert not out.exists()


# flags, the field they raise, and the largest array that field sizes with its bytes under
# SMALL_FLAGS: every size is refused before anything is allocated, and none comes near a
# machine's memory
SIZE_CLIFFS = [
    (["--vocab-size", str(10**12)], "vocab_size", "embedding", 8 * 10**12 * 16),
    (["--d-ff", str(10**12)], "d_ff", "feed-forward", 8 * 16 * 10**12),
    (["--d-model", str(4 * 10**12), "--n-heads", "1"], "d_model", "attention",
     8 * (4 * 10**12) ** 2),
    (["--chunk-len", str(10**6)], "chunk_len", "window score", 8 * 2 * 10**12),
]


# in 8-byte words under SMALL_FLAGS (vocab_size 64, d_model 16, n_layers 1, d_ff 32,
# n_heads 2, chunk_len 8): a layer's 12 attention and 4 feed-forward matrices, the two
# embeddings and the output projection, and one window's scores
SMALL_LAYER, SMALL_EMBEDDINGS, SMALL_SCORES = 12 * 16**2 + 4 * 16 * 32, 3 * 64 * 16, 2 * 8**2
SMALL_MODEL = SMALL_EMBEDDINGS + SMALL_LAYER + SMALL_SCORES
# the words of both weight stacks and one window's scores for each SIZE_CLIFFS case, by field
CLIFF_MODEL_WORDS = {
    "vocab_size": 3 * 10**12 * 16 + SMALL_LAYER + SMALL_SCORES,
    "d_ff": SMALL_EMBEDDINGS + 12 * 16**2 + 4 * 16 * 10**12 + SMALL_SCORES,
    "d_model": 3 * 64 * 4 * 10**12 + 12 * (4 * 10**12) ** 2 + 4 * 4 * 10**12 * 32 + 8**2,
    "chunk_len": SMALL_EMBEDDINGS + SMALL_LAYER + 2 * (10**6) ** 2,
}
SIZE_FIELDS = ("vocab_size", "d_model", "n_layers", "d_ff", "n_heads", "chunk_len")


def run_tokens(command: str, chunk_len: int) -> int:
    """The document tokens an ``OUT_DIR_RUNS`` run holds at ``chunk_len`` and overlap 2."""
    if command == "probe":  # one document of 4 windows
        return chunk_len + 3 * (chunk_len - 2)
    return {"ablate": 2 * 26, "bench": 16 + 32 + 64 + 128, "pipeline": 10 + 8}[command]


def run_longest(command: str, values: dict) -> int:
    """The tokens of the longest document of an ``OUT_DIR_RUNS`` run with flag ``values``."""
    chunk_len = int(values["--chunk-len"])
    if command == "probe":  # 4 windows unless --n-chunks says otherwise, overlap 2
        return chunk_len + (int(values.get("--n-chunks", 4)) - 1) * (chunk_len - 2)
    if command == "bench":
        return int(values.get("--lengths", "128").split(",")[-1])
    return {"ablate": 26, "pipeline": 10}[command]


def document_words(values: dict, longest: int) -> int:
    """What ``pipeline`` holds for a ``longest``-token document under the ``values`` flags.

    Boundary width 1 and 2 middles keep 2 + min(2, n - 2) rows a window; each row
    has ``d_model`` words, one cross weight per decode position (17) and one cross
    score per head.
    """
    from chunkfuse.segmenter import segment_count

    d, heads, chunk_len = (int(values[flag]) for flag in ("--d-model", "--n-heads", "--chunk-len"))
    rows = segment_count(longest, chunk_len, 2) * (2 + min(2, max(min(chunk_len, longest) - 2, 0)))
    return rows * (d + 17 + heads)


def drawn_bytes(cfg) -> int:
    """The bytes of the arrays in both weight stacks ``pipeline`` draws for ``cfg``."""
    import dataclasses

    import numpy as np

    from chunkfuse.decoder import init_decoder_weights
    from chunkfuse.encoder import ModelConfig, init_weights

    def array_bytes(record) -> int:
        if isinstance(record, np.ndarray):
            return record.nbytes
        if isinstance(record, ModelConfig):  # the config a stack carries holds no array
            return 0
        if isinstance(record, tuple):
            return sum(map(array_bytes, record))
        return sum(array_bytes(getattr(record, f.name)) for f in dataclasses.fields(record))

    return (array_bytes(init_weights(cfg.encoder_config()))
            + array_bytes(init_decoder_weights(cfg.decoder_config(17))))


def priced_bytes(monkeypatch, cfg, n_tokens: int, longest: int) -> int:
    """``cli._check_memory``'s price of a run, read from its refusal under one byte of memory."""
    from chunkfuse import cli

    monkeypatch.setattr(cli.os, "sysconf", lambda name: 1)  # one byte: every run is refused
    with pytest.raises(cli.ConfigError, match=r"need at least (\d+) bytes") as refused:
        cli._check_memory(cfg, n_tokens, longest)
    return int(refused.value.args[0].split("need at least ")[1].split()[0])


class TestSizeCliff:
    """A run whose weights, window scores and documents pass memory exits 1 before any draw."""

    def assert_refused(self, tmp_path, capsys, monkeypatch, command, flags, tokens, words):
        """``command`` with ``flags`` prints one line: its sizes, ``tokens``, model ``words``
        and what its longest document holds."""
        from chunkfuse.numerics import SeededRng

        def no_draw(*args, **kwargs):
            raise AssertionError("drew weights or tokens")

        argv = OUT_DIR_RUNS[command](tmp_path)  # ablate's corpus draws its tokens here
        monkeypatch.setattr(SeededRng, "normal_matrix", no_draw)
        monkeypatch.setattr(SeededRng, "token_ids", no_draw)
        out = tmp_path / "run"
        assert main([*argv, *flags, "--out-dir", str(out)]) == 1
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        pairs = [*SMALL_FLAGS, *flags]
        values = dict(zip(pairs[::2], pairs[1::2]))  # a later flag wins, as in argparse
        sizes = ", ".join(f"{name} {values['--' + name.replace('_', '-')]}"
                          for name in SIZE_FIELDS)
        price = 8 * (words + tokens + document_words(values, run_longest(command, values)))
        assert capsys.readouterr().err == (
            f"error: {sizes} and {tokens} document tokens need at least {price} "
            f"bytes, more than the machine's {memory} bytes of physical memory\n")
        assert not out.exists()

    # every subcommand that draws weights; ablate's corpus makes one window at chunk_len 10**6,
    # which it names first
    @pytest.mark.parametrize("command, flags, field, array, nbytes", [
        (command, *case) for command in ("ablate", "bench", "pipeline", "probe")
        for case in SIZE_CLIFFS if (command, case[1]) != ("ablate", "chunk_len")])
    def test_exits_one_naming_field_bytes_and_memory(self, tmp_path, capsys, monkeypatch,
                                                     command, flags, field, array, nbytes):
        words = CLIFF_MODEL_WORDS[field]
        assert nbytes <= 8 * words  # the total prices each array the old check did
        tokens = run_tokens(command, 10**6 if field == "chunk_len" else 8)
        self.assert_refused(tmp_path, capsys, monkeypatch, command, flags, tokens, words)

    # a model whose arrays each fit but whose layers together do not, and documents past
    # memory under a small model: each priced before its first token is drawn
    @pytest.mark.parametrize("command, flags, tokens, words", [
        *[(command, flags, run_tokens(command, 8), words)
          for command in ("ablate", "bench", "pipeline", "probe")
          for flags, words in [
              (["--n-layers", str(10**12)], SMALL_MODEL + (10**12 - 1) * SMALL_LAYER),
              (["--d-model", "8192", "--d-ff", "8192", "--n-heads", "4", "--n-layers", "100"],
               3 * 64 * 8192 + 100 * 16 * 8192**2 + 4 * 8**2)]],
        ("probe", ["--n-chunks", str(2**63)], 8 + (2**63 - 1) * 6, SMALL_MODEL),
        ("probe", ["--n-docs", str(10**12)], 10**12 * 26, SMALL_MODEL),
        ("bench", ["--lengths", f"16,32,64,{10**15}"], 112 + 10**15, SMALL_MODEL),
    ])
    def test_run_past_memory_exits_one(self, tmp_path, capsys, monkeypatch,
                                       command, flags, tokens, words):
        self.assert_refused(tmp_path, capsys, monkeypatch, command, flags, tokens, words)

    @pytest.mark.parametrize("sizes", [
        dict(vocab_size=11, d_model=6, n_heads=2, n_layers=1, d_ff=10),
        dict(vocab_size=5, d_model=7, n_heads=7, n_layers=2, d_ff=3),
        dict(vocab_size=13, d_model=8, n_heads=4, n_layers=3, d_ff=20),
    ])
    def test_weight_price_is_the_drawn_bytes(self, monkeypatch, sizes):
        from chunkfuse.pipeline import PipelineConfig

        cfg = PipelineConfig(**sizes)
        # a one-token document keeps that token twice, as both boundary rows
        document = 8 * 2 * (cfg.d_model + 17 + cfg.n_heads)
        price = priced_bytes(monkeypatch, cfg, 0, 1)
        assert price - 8 * cfg.n_heads * cfg.chunk_len ** 2 - document == drawn_bytes(cfg)

    # windows of full and of short interiors, heads that divide and that scale their scores
    @pytest.mark.parametrize("sizes, n_tokens", [
        (dict(chunk_len=16, overlap=4, boundary_width=2, middle_count=5, d_model=8,
              n_heads=2, n_layers=1, d_ff=12, vocab_size=32), 100),
        (dict(chunk_len=12, overlap=0, boundary_width=1, middle_count=10, d_model=12,
              n_heads=3, n_layers=3, d_ff=8, vocab_size=16), 90),
        (dict(chunk_len=64, overlap=16, boundary_width=3, middle_count=50, d_model=16,
              n_heads=4, n_layers=2, d_ff=20, vocab_size=40), 40),
    ])
    def test_document_price_is_the_arrays_a_run_holds(self, monkeypatch, sizes, n_tokens):
        from chunkfuse import cli, decoder
        from chunkfuse.encoder import init_weights
        from chunkfuse.metrics import make_random_doc
        from chunkfuse.pipeline import PipelineConfig, encode_document, run_document

        cfg = PipelineConfig(**sizes)
        tokens = make_random_doc(n_tokens, cfg.vocab_size, 9)
        weights = init_weights(cfg.encoder_config())
        kept = encode_document(tokens, cfg, weights, "doc")[1]
        memory = run_document(tokens, cfg, weights=weights, doc_id="doc").fused
        assert memory.rows > len(cli._DECODE_PREFIX) + cli._DECODE_STEPS  # no self-attention
        dec_cfg = cfg.decoder_config(len(cli._DECODE_PREFIX) + cli._DECODE_STEPS)
        scores, real = set(), decoder._attention

        def recorded(*args):
            out = real(*args)
            if out[1].shape[-1] == memory.rows:  # a cross pass reads every memory row
                scores.add(out[1].nbytes)
            return out

        monkeypatch.setattr(decoder, "_attention", recorded)
        positions = decoder.decode(cli._DECODE_PREFIX, memory, dec_cfg, cli._DECODE_STEPS)[2]
        held = kept.nbytes + positions.nbytes + scores.pop()
        assert not scores  # every pass's cross scores have one size
        price = priced_bytes(monkeypatch, cfg, n_tokens, n_tokens)
        assert price - drawn_bytes(cfg) - 8 * (cfg.n_heads * cfg.chunk_len ** 2 + n_tokens) == held


    def test_run_past_the_address_space_limit_exits_one(self, tmp_path):
        # one BLAS thread keeps numpy's import near 110 MB of address space, under the
        # 320 MB limit; the weights and tokens price 27 MB, the document's 100000 kept
        # rows of 512 words and the decode's cross rows and scores over them 424 MB more
        import resource
        from chunkfuse.metrics import make_random_doc

        limit = 320 << 20
        corpus = write_corpus(tmp_path / "wide.jsonl",
                              [{"id": "wide", "tokens": list(make_random_doc(100_000, 64, 4))}])
        out = tmp_path / "run"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        proc = subprocess.run(
            [sys.executable, "-m", "chunkfuse.cli", "pipeline", str(corpus), "--out-dir", str(out),
             "--chunk-len", "16", "--overlap", "0", "--boundary-width", "1", "--middle-count", "14",
             "--d-model", "512", "--n-heads", "1", "--n-layers", "1", "--d-ff", "16",
             "--vocab-size", "64"],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)))
        assert proc.returncode == 1, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ") and line.endswith(
            f"more than the process's {limit}-byte address space limit")
        assert not out.exists()

    # int() once read 0_3, +3 and the Arabic-Indic 3; argparse's own message named no JSON
    @pytest.mark.parametrize("flag", ["--n-chunks", "--n-docs", "--doc-seed", "--lengths"])
    @pytest.mark.parametrize("raw", ["x", "3.0", "true", "null", "0_3", "+3", "٣"])
    def test_count_is_a_json_int(self, capsys, flag, raw):
        command = "bench" if flag == "--lengths" else "probe"
        value = f"8,16,32,{raw}" if flag == "--lengths" else raw
        assert main([command, f"{flag}={value}", *SMALL_FLAGS]) == 1
        where = f"{flag} entry" if flag == "--lengths" else f"argument {flag}:"
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {where} {raw!r} is not a JSON int")


class TestOutDirThatIsAFile:
    """Checked before the first encode, so no work is thrown away."""

    @pytest.mark.parametrize("command", sorted(OUT_DIR_RUNS))
    @pytest.mark.parametrize("below", [False, True])
    def test_exits_one_naming_the_path(self, tmp_path, capsys, monkeypatch, command, below):
        windows = count_encoded_windows(monkeypatch)
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        out = afile / "sub" if below else afile
        argv = [*OUT_DIR_RUNS[command](tmp_path), "--out-dir", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(afile) in err
        assert afile.read_text() == "keep\n"
        assert windows == []


class TestExitCodes:
    def test_unknown_flag_is_one(self, tmp_path):
        assert main(["segment", str(token_corpus(tmp_path)), "--bogus"]) == 1

    def test_unexpected_exception_is_two_with_traceback(self, monkeypatch, tmp_path, capsys):
        import chunkfuse.cli as cli_mod

        def boom(args):
            raise KeyError("wired for the test")

        # main() builds its parser at call time, so the patched handler binds
        monkeypatch.setitem(cli_mod.__dict__, "cmd_segment", boom)
        rc = cli_mod.main(["segment", str(token_corpus(tmp_path))])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert "internal error: KeyError: 'wired for the test'" in err


class TestNonUtf8Inputs:
    """A file that does not decode exits 1 naming it, not with a traceback."""

    def assert_exits_one_naming(self, argv, where, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err and "Traceback" not in err

    def test_corpus_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "a", "tokens": [1, 2, 3, 4, 5, 6, 7, 8]}\n'
                         b'{"id": "b\xff", "tokens": [1, 2, 3, 4, 5, 6, 7, 8]}\n')
        out = tmp_path / "run"
        self.assert_exits_one_naming(
            ["pipeline", str(path), "--out-dir", str(out), *SMALL_FLAGS], f"{path}:2:", capsys)
        assert not out.exists()

    def test_config_file_names_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"seed": 1, "\xff": 2}')
        self.assert_exits_one_naming(
            ["segment", str(token_corpus(tmp_path)), "--config", str(cfg)], str(cfg), capsys)

    def test_rouge_file_names_path(self, tmp_path, capsys):
        cand, ref = tmp_path / "cand.txt", tmp_path / "ref.txt"
        cand.write_text("the cat sat\n")
        ref.write_bytes(b"the cat \xff sat\n")
        self.assert_exits_one_naming(["rouge", str(cand), str(ref)], str(ref), capsys)
