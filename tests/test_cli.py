import csv
import json
from pathlib import Path

import pytest

from chunkfuse.cli import build_config, load_corpus, main
from chunkfuse.errors import InputError

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


def count_encode_calls(monkeypatch) -> list:
    """Record one entry per ``encoder.encode`` call for the rest of the test."""
    import chunkfuse.encoder as encoder_mod
    calls = []
    real = encoder_mod.encode

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(encoder_mod, "encode", counting)
    return calls


def read_tree(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


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
        err = capsys.readouterr().err
        assert f"{path}:2:" in err and "'flag'" in err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [{"id": "hollow", "tokens": []},
                                     {"id": "hollow", "text": "   "}])
    def test_empty_document_rejected_before_writing(self, tmp_path, capsys, doc):
        first = {"id": "good", "tokens": [1, 2, 3]} if "tokens" in doc else \
            {"id": "good", "text": "a b c"}
        path = write_corpus(tmp_path / "e.jsonl", [first, doc])
        out = tmp_path / "run"
        assert main(["pipeline", str(path), "--out-dir", str(out), *SMALL_FLAGS]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2:" in err and "'hollow'" in err
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
        calls = count_encode_calls(monkeypatch)
        path = self.corpus(tmp_path)
        out = tmp_path / "run"
        assert main([command[0], str(path), *command[1:], "--out-dir", str(out),
                     *SMALL_FLAGS]) == 1
        err = capsys.readouterr().err
        assert f"{path}:1: document 'a/b'" in err and f"{path}:3: document 'a_b'" in err
        assert calls == []
        assert not out.exists()

    def test_segment_to_stdout_keeps_both(self, tmp_path, capsys):
        assert main(["segment", str(self.corpus(tmp_path)), *SMALL_FLAGS]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["id"] for line in lines] == ["a/b", "other", "a_b"]


class TestCorpusChecks:
    """Per-document checks against the config run before anything is written."""

    COMMANDS = {
        "pipeline": lambda path: ["pipeline", str(path)],
        "ablate": lambda path: ["ablate", str(path), "--axis", "alpha", "--values", "0.5"],
        "probe": lambda path: ["probe", "--corpus", str(path)],
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
        assert "boundary_width 2" in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_token_id_outside_vocab(self, tmp_path, capsys, command):
        docs = [{"id": "a", "tokens": [1, 2, 3]}, {"id": "short", "tokens": [1, 9, 3]}]
        err = self._rejects(tmp_path, capsys, command, docs, ["--vocab-size", "4"])
        assert "token id 9" in err

    def test_probe_document_with_too_few_chunks(self, tmp_path, capsys):
        docs = [{"id": "a", "tokens": list(range(30))}, {"id": "short", "tokens": list(range(8))}]
        err = self._rejects(tmp_path, capsys, "probe", docs, [])
        assert "at least 3 chunks, got 1" in err

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

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus": 1}))
        corpus = token_corpus(tmp_path)
        rc = main(["segment", str(corpus), "--config", str(cfg_file)])
        assert rc == 1

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

    def test_length_mismatch_names_both_counts(self, tmp_path, capsys):
        cand = tmp_path / "c.txt"
        ref = tmp_path / "r.txt"
        cand.write_text("a\nb\n")
        ref.write_text("a\n")
        rc = main(["rouge", str(cand), str(ref)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "2" in err and "1" in err


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

    def test_encodes_each_chunk_once_per_value(self, tmp_path, capsys, monkeypatch):
        calls = count_encode_calls(monkeypatch)
        corpus = identical_chunk_corpus(tmp_path)  # two documents of 4 chunks
        assert main(["ablate", str(corpus), "--axis", "alpha", "--values", "0.0,0.5,1.0",
                     *SMALL_FLAGS]) == 0
        assert len(calls) == 3 * 2 * 4


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
        calls = count_encode_calls(monkeypatch)
        assert main(["probe", "--alphas", "0.0,0.5,1.0", "--n-chunks", "4",
                     "--n-docs", "2", *SMALL_FLAGS]) == 0
        assert len(calls) == 2 * 4


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
        calls = count_encode_calls(monkeypatch)
        corpus = str(token_corpus(tmp_path))
        argv = [corpus if a == "CORPUS" else a for a in command]
        out = tmp_path / "run"
        assert main([*argv, flag, value, "--out-dir", str(out), *SMALL_FLAGS]) == 1
        err = capsys.readouterr().err
        assert flag in err and repr(entry) in err
        assert "Traceback" not in err
        assert calls == []
        assert not out.exists()


class TestOutDirThatIsAFile:
    """Checked before the first encode, so no work is thrown away."""

    COMMANDS = {
        "ablate": lambda tmp: ["ablate", str(identical_chunk_corpus(tmp)),
                               "--axis", "alpha", "--values", "0.5"],
        "bench": lambda tmp: ["bench", "--lengths", "16,32,64,128", "--repeats", "1"],
        "pipeline": lambda tmp: ["pipeline", str(token_corpus(tmp))],
        "probe": lambda tmp: ["probe", "--n-chunks", "4", "--n-docs", "1"],
        "segment": lambda tmp: ["segment", str(token_corpus(tmp))],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("below", [False, True])
    def test_exits_one_naming_the_path(self, tmp_path, capsys, monkeypatch, command, below):
        calls = count_encode_calls(monkeypatch)
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        out = afile / "sub" if below else afile
        argv = [*self.COMMANDS[command](tmp_path), "--out-dir", str(out), *SMALL_FLAGS]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(afile) in err
        assert afile.read_text() == "keep\n"
        assert calls == []


class TestExitCodes:
    def test_unknown_flag_is_one(self, tmp_path):
        assert main(["segment", str(token_corpus(tmp_path)), "--bogus"]) == 1

    def test_contract_error_is_two(self, monkeypatch, tmp_path):
        import chunkfuse.cli as cli_mod
        from chunkfuse.errors import ContractError

        def boom(args):
            raise ContractError("wired for the test")

        # main() builds its parser at call time, so the patched handler binds
        monkeypatch.setitem(cli_mod.__dict__, "cmd_segment", boom)
        rc = cli_mod.main(["segment", str(token_corpus(tmp_path))])
        assert rc == 2
