"""Command-line front end.

Subcommands: ``segment``, ``pipeline``, ``ablate``, ``bench``,
``rouge``, ``probe``. Configuration flows from four layers, later ones
winning: built-in defaults, a JSON file given with ``--config``,
``CHUNKFUSE_*`` environment variables, explicit flags. All outputs are
text (JSON, CSV, matrix dumps) so runs can be diffed byte for byte;
nothing written by ``pipeline`` depends on wall-clock time.

Exit codes: 0 success; 1 for the caller's fault, a ``ChunkfuseError`` or
``OSError``; 2 and a traceback for any other exception, a program fault.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import bench as bench_mod
from . import cumulation
from .decoder import attention_mass_by_chunk, decode_step
from .errors import ChunkfuseError, ConfigError, InputError
from .metrics import PROBE_MIN_CHUNKS, make_repeated_chunk_doc, position_probe, rouge_l, rouge_n
from .numerics import save_matrix
from .pipeline import PipelineConfig, greedy_decode, run_document, sweep
from .encoder import init_weights
from .segmenter import segment, segment_count, segment_set_to_dict

ENV_PREFIX = "CHUNKFUSE_"
_CONFIG_FLAGS = {f.name: "--" + f.name.replace("_", "-") for f in fields(PipelineConfig)}
_DECODE_PREFIX = [0]
_DECODE_STEPS = 16
_NAME_MAX = 255  # bytes in one file name on common file systems
# the float64 arrays a run allocates whole, by the config fields that size them
_ARRAYS = {"embedding": ("vocab_size", "d_model"), "attention": ("d_model", "d_model"),
           "feed-forward": ("d_model", "d_ff"), "position": ("chunk_len", "d_model"),
           "window score": ("n_heads", "chunk_len", "chunk_len")}


class _Parser(argparse.ArgumentParser):
    # usage problems are caller errors, exit 1 like other input errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)

    def _get_values(self, action, arg_strings):
        # argparse of Python 3.11 drops the value of ``--flag=--`` and stores []
        if action.nargs is None and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


def _json_value(raw: str) -> object:
    """``raw`` read as JSON: every value the CLI reads has a ``--config`` file's grammar."""
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:  # not JSON, too many digits, too deep
        raise ConfigError("not a JSON value") from exc


def _at_least(minimum: int | None) -> Callable[[str], int]:
    """The type of a count flag or list entry: a JSON int, at least ``minimum`` if given."""
    def parse(raw: str) -> int:
        try:
            value = _json_value(raw)
        except ConfigError:
            value = None
        if type(value) is not int:  # comparing types rejects bools
            raise argparse.ArgumentTypeError(f"{raw!r} is not a JSON int")
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(f"{raw!r} is below {minimum}")
        return value
    return parse


def _parsed(where: str, raw: str, parse: Callable[[str], object]) -> object:
    """``parse(raw)``, a value string the CLI reads; an error exits 1 naming ``where``."""
    try:
        return parse(raw)
    except argparse.ArgumentTypeError as exc:  # names ``raw`` itself
        raise ConfigError(f"{where} {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{where} {raw!r}: {exc}") from exc


def _parse_list(flag: str, raw: str, parse: Callable[[str], object]) -> list:
    """``parse`` each comma-separated entry of a list flag; a bad entry exits 1."""
    return [_parsed(f"{flag} entry", entry, parse) for entry in raw.split(",")]


def _out_dir_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="directory for output artifacts")


def _common_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of every subcommand that builds a PipelineConfig; config values stay text."""
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file of pipeline config fields")
    _out_dir_flag(parser)
    for name, flag in _CONFIG_FLAGS.items():
        parser.add_argument(flag, default=None, help=f"pipeline config field {name}, as JSON")


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge defaults, --config file, CHUNKFUSE_* env vars, then flags."""
    return PipelineConfig.from_json(_config_values(args))


def _config_values(args: argparse.Namespace) -> dict:
    """The JSON field values of :func:`build_config`'s layers, later ones winning."""
    values = {}
    if args.config is not None:
        try:
            values = json.loads(args.config.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: UTF-8, JSON, digits
            raise InputError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(values, dict):
            raise InputError(f"config file {args.config} must hold a JSON object")

    for name, flag in _CONFIG_FLAGS.items():
        variable = ENV_PREFIX + name.upper()
        for where, raw in ((variable, os.environ.get(variable)), (flag, getattr(args, name))):
            if raw is not None:
                values[name] = _parsed(where, raw, _json_value)
    return values


def _check_memory(cfg: PipelineConfig) -> None:
    """Reject, before any draw, a config whose largest array passes physical memory.

    The error names the largest field that sizes that array, its bytes and the memory.
    """
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    nbytes, array = max((8 * math.prod(getattr(cfg, name) for name in sizes), array)
                        for array, sizes in _ARRAYS.items())
    if nbytes > memory:
        name = max(_ARRAYS[array], key=lambda size: getattr(cfg, size))
        raise ConfigError(f"{name} {getattr(cfg, name)} needs a {nbytes}-byte {array} "
                          f"array, more than the machine's {memory} bytes of physical memory")


# ---------------------------------------------------------------------------
# corpus loading


def load_corpus(path: Path) -> tuple[list[tuple[str, tuple[int, ...]]], dict | None]:
    """Read a JSONL corpus of {"id", "tokens"} or {"id", "text"} lines.

    Text corpora are whitespace-tokenized against a vocabulary built
    from the sorted set of all words in the corpus; the mapping is
    returned so runs can persist it. Mixing the two document kinds in
    one file is rejected.
    """
    docs, vocab = _read_corpus(path)
    return [(doc_id, tokens) for _, doc_id, tokens in docs], vocab


def _read_corpus(path: Path) -> tuple[list[tuple[str, str, tuple[int, ...]]], dict | None]:
    """:func:`load_corpus`, with each document's ``file:line: document 'id'`` prefix first."""
    docs_raw = []
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read corpus {path}: {exc}") from exc

    kind = None
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # not JSON, too many digits, too deep
            raise InputError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
        if not isinstance(obj, dict) or "id" not in obj:
            raise InputError(f"{path}:{lineno}: document needs an \"id\" field")
        if not isinstance(obj["id"], str):
            raise InputError(f"{path}:{lineno}: document id must be a string, got {obj['id']!r}")
        try:
            obj["id"].encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate, which a JSON \u escape admits
            raise InputError(f"{path}:{lineno}: document id {obj['id']!r} is not UTF-8") from exc
        where = f"{path}:{lineno}: document {obj['id']!r}"
        if "tokens" in obj and "text" in obj:
            raise InputError(f"{where}: has both \"tokens\" and \"text\"")
        if "tokens" in obj:
            this_kind = "tokens"
        elif "text" in obj:
            this_kind = "text"
        else:
            raise InputError(f"{path}:{lineno}: need \"tokens\" or \"text\"")
        if kind is None:
            kind = this_kind
        elif kind != this_kind:
            raise InputError(
                f"{path}:{lineno}: cannot mix \"tokens\" and \"text\" documents")
        docs_raw.append((where, obj["id"], obj))

    if kind == "text":
        for where, _, obj in docs_raw:
            if not isinstance(obj["text"], str) or not obj["text"].split():
                raise InputError(f"{where}: text must be a non-empty string")
        words = sorted({w for _, _, obj in docs_raw for w in obj["text"].split()})
        vocab = {w: i for i, w in enumerate(words)}
        docs = [(where, doc_id, tuple(vocab[w] for w in obj["text"].split()))
                for where, doc_id, obj in docs_raw]
        return docs, vocab

    docs = []
    for where, doc_id, obj in docs_raw:
        toks = obj["tokens"]
        # comparing types rejects bools, which isinstance would take as 0 and 1;
        # windows are int64 arrays, so every id must fit in one
        if (not isinstance(toks, list) or not toks or set(map(type, toks)) != {int}
                or not 0 <= min(toks) <= max(toks) < 1 << 63):
            raise InputError(f"{where}: tokens must be a non-empty list of ints in [0, 2**63)")
        docs.append((where, doc_id, tuple(toks)))
    return docs, None


def _check_file_names(docs: Sequence[tuple[str, str, object]], suffix: str = "") -> None:
    """Reject an id whose file name, ``suffix`` appended, is too long, or two ids of one name."""
    seen: dict[str, str] = {}
    for where, doc_id, _ in docs:
        name = _safe_id(doc_id)
        if len(name + suffix) > _NAME_MAX:  # a safe name is ASCII: one byte a character
            raise InputError(f"{where}: {len(name + suffix)}-byte file name, over {_NAME_MAX}")
        if name in seen:
            raise InputError(f"{seen[name]} and {where} both write to file name {name!r}")
        seen[name] = where


def _load_checked(
    path: Path,
    configs: Sequence[tuple[str, PipelineConfig]],
    min_chunks: int = 1,
    file_per_document: bool = False,
) -> tuple[list[PipelineConfig], list[tuple[str, tuple[int, ...]]], dict | None]:
    """Load a corpus and check every document against every config before any write.

    ``configs`` pairs each config with a suffix its errors append to the
    document id, such as ``" at overlap 16"``, or ``""``. A text corpus
    sets each config's ``vocab_size`` to the size of its vocabulary. A
    document shorter than one boundary block, holding a token id outside
    the vocabulary, or cut into fewer than ``min_chunks`` windows is
    rejected with its line and id. For a run that writes one file per
    document, :func:`_check_file_names` runs last.
    """
    docs, vocab = _read_corpus(path)
    if vocab is not None:
        configs = [(label, replace(cfg, vocab_size=len(vocab))) for label, cfg in configs]
    # faults of a document itself are named before how a config cuts it
    for where, _, tokens in docs:
        for label, cfg in configs:
            if len(tokens) < cfg.boundary_width:
                raise InputError(f"{where}{label}: {len(tokens)} tokens, fewer than "
                                 f"boundary_width {cfg.boundary_width}")
            if max(tokens) >= cfg.vocab_size:
                raise InputError(f"{where}{label}: token id {max(tokens)} outside vocab_size "
                                 f"{cfg.vocab_size}; raise --vocab-size")
    for label, cfg in configs:
        for where, _, tokens in docs:
            count = segment_count(len(tokens), cfg.chunk_len, cfg.overlap)
            if count < min_chunks:
                raise InputError(f"{where}{label}: the position probe needs at least "
                                 f"{min_chunks} chunks, got {count}")
    if file_per_document:
        _check_file_names(docs)
    return [cfg for _, cfg in configs], [(doc_id, tokens) for _, doc_id, tokens in docs], vocab


def _safe_id(doc_id: str) -> str:
    name = re.sub(r"[^A-Za-z0-9._-]", "_", doc_id)
    # "", "." and ".." name no file of their own: they become underscores
    return name if name.strip(".") else "_" * max(len(name), 1)


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _published(out_dir: Path | None) -> Iterator[Path | None]:
    """Yield a fresh directory that replaces ``out_dir`` when the block ends without error.

    It is built beside the resolved ``out_dir`` and removed on any
    exception, so a run appears whole or not at all. ``out_dir`` must be
    absent or an empty directory, which ``os.replace`` then swaps out.
    ``None`` yields ``None``: the command writes to stdout.
    """
    if out_dir is None:
        yield None
        return
    # a run never merges into another: files of documents it did not run would stay
    if out_dir.exists() and (not out_dir.is_dir() or any(out_dir.iterdir())):
        raise InputError(f"--out-dir {out_dir} exists and is not an empty directory")
    # a symlinked out_dir is swapped at its target; Path.resolve would raise
    # RuntimeError, an exit 2, on a symlink loop before Python 3.13
    target = Path(os.path.realpath(out_dir))
    target.parent.mkdir(parents=True, exist_ok=True)
    # a fixed prefix: ``target.name`` plus 10 bytes could pass the 255-byte name limit
    with tempfile.TemporaryDirectory(prefix=".chunkfuse-", dir=target.parent) as sibling:
        # a plain mkdir gives the umask's mode, where the sibling has 0700
        build = Path(sibling) / "run"
        build.mkdir()
        yield build
        os.replace(build, target)


def _write_csv(path: Path | None, rows: list[list]) -> None:
    if path is None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(rows)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_segment(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    docs, _ = _read_corpus(args.corpus)
    if args.out_dir is not None:
        _check_file_names(docs, ".segments.json")
    # a corpus with no documents creates nothing
    with _published(args.out_dir if docs else None) as out_dir:
        for _, doc_id, tokens in docs:
            seg_json = segment_set_to_dict(
                segment(tokens, cfg.chunk_len, cfg.overlap),
                include_tokens=args.include_tokens)
            seg_json["id"] = doc_id
            if out_dir is None:
                print(json.dumps(seg_json, sort_keys=True))
            else:
                _write_json(out_dir / f"{_safe_id(doc_id)}.segments.json", seg_json)
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    (cfg,), docs, vocab = _load_checked(args.corpus, [("", build_config(args))],
                                        file_per_document=True)
    if not docs:
        print(f"warning: corpus {args.corpus} holds no documents; "
              "nothing to do", file=sys.stderr)
        return 0
    _check_memory(cfg)

    with _published(args.out_dir or Path("chunkfuse-run")) as run_dir:
        _write_json(run_dir / "config.json", json.loads(cfg.canonical_json()))
        with open(run_dir / "config_hash.txt", "w", encoding="ascii", newline="\n") as fh:
            fh.write(cfg.config_hash() + "\n")
        if vocab is not None:
            _write_json(run_dir / "vocab.json", vocab)

        weights = init_weights(cfg.encoder_config())
        dec_cfg = cfg.decoder_config(max_len=len(_DECODE_PREFIX) + _DECODE_STEPS)

        # middle sampling is keyed on the document id, so corpus order changes no bytes
        for doc_id, tokens in docs:
            run = run_document(tokens, cfg, weights=weights, doc_id=doc_id)
            doc_dir = run_dir / "docs" / _safe_id(doc_id)
            doc_dir.mkdir(parents=True)
            _write_json(doc_dir / "segments.json",
                        segment_set_to_dict(run.segments))
            manifest = cumulation.fused_sequence_manifest(run.fused)
            manifest["doc_id"] = doc_id
            manifest["n_tokens"] = len(tokens)
            _write_json(doc_dir / "fused_manifest.json", manifest)
            save_matrix(run.fused.flattened, doc_dir / "fused_matrix.txt")
            generated = greedy_decode(_DECODE_PREFIX, run.fused, dec_cfg, _DECODE_STEPS)
            _write_json(doc_dir / "decode_demo.json", {
                "doc_id": doc_id,
                "prefix": _DECODE_PREFIX,
                "generated": generated[len(_DECODE_PREFIX):],
            })
            _, cross = decode_step(generated, run.fused, dec_cfg)
            mass = attention_mass_by_chunk(cross, run.fused.provenance)
            _write_csv(doc_dir / "attention_mass.csv",
                       [["chunk", "mass"],
                        *[[i + 1, repr(float(m))] for i, m in enumerate(mass)]])

        _write_json(run_dir / "run_meta.json", {
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "middle_seed_effective": cfg.effective_middle_seed(),
            "documents": [d for d, _ in docs],
            "vocab_size_effective": cfg.vocab_size,
            "corpus": str(args.corpus),
        })
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    field = args.axis.replace("-", "_")
    values = _config_values(args)
    labelled = _parse_list("--values", args.values, lambda raw: (
        f" at {args.axis} {raw}",
        PipelineConfig.from_json({**values, field: _json_value(raw)})))
    variants, docs, _ = _load_checked(args.corpus, labelled, PROBE_MIN_CHUNKS)
    if not docs:
        raise InputError(f"corpus {args.corpus} holds no documents; the probe needs one")
    _check_memory(variants[0])
    with _published(args.out_dir) as out_dir:
        weights = init_weights(variants[0].encoder_config())  # sweep checks that all share it
        rows: list[list] = [[args.axis, "probe_mse", "scale_rows", "fuse_seconds"]]
        for variant, (runs, _, fuse_seconds) in zip(variants, sweep(docs, variants, weights)):
            memories = [run.fused for run in runs]
            rows.append([repr(getattr(variant, field)), repr(position_probe(memories)),
                         sum(memory.rows for memory in memories), repr(fuse_seconds)])
        _write_csv(out_dir / "ablation.csv" if out_dir else None, rows)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    lengths = bench_mod.check_lengths(_parse_list("--lengths", args.lengths, _at_least(1)),
                                      cfg)
    _check_memory(cfg)
    with _published(args.out_dir) as out_dir:
        report = bench_mod.run_scaling(lengths, cfg, repeats=args.repeats)
        if not report.reliable:
            print("warning: smallest point ran under the reliable-timing floor; "
                  "slope may be noise", file=sys.stderr)
        _write_csv(out_dir / "scaling.csv" if out_dir else None, report.csv_rows())
        if out_dir:
            _write_json(out_dir / "verdict.json", report.verdict())
    print(json.dumps(report.verdict(), sort_keys=True))
    return 0


def cmd_rouge(args: argparse.Namespace) -> int:
    def read_lines(path: Path) -> list[str]:
        try:
            return path.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc

    cand_lines = read_lines(args.candidates)
    ref_lines = read_lines(args.references)
    if len(cand_lines) != len(ref_lines):
        raise InputError(
            f"line count mismatch: {len(cand_lines)} candidate lines vs "
            f"{len(ref_lines)} reference lines")
    with _published(args.out_dir) as out_dir:
        rows: list[list] = [["line", "rouge1_f1", "rouge2_f1", "rougeL_f1"]]
        sums = [0.0, 0.0, 0.0]
        for i, (cand, ref) in enumerate(zip(cand_lines, ref_lines), start=1):
            c, r = cand.split(), ref.split()
            scores = (rouge_n(c, r, 1).f1, rouge_n(c, r, 2).f1, rouge_l(c, r).f1)
            for j, s in enumerate(scores):
                sums[j] += s
            rows.append([i, *(repr(s) for s in scores)])
        n = max(len(cand_lines), 1)
        rows.append(["mean", *(repr(s / n) for s in sums)])
        _write_csv(out_dir / "rouge.csv" if out_dir else None, rows)
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    values = _config_values(args)  # as in ablate, the base alpha does not matter
    variants = _parse_list("--alphas", args.alphas, lambda raw: PipelineConfig.from_json(
        {**values, "alpha": _json_value(raw)}))
    # every draw reads its seed modulo 2**64: -1 would alias 2**64 - 1
    if not 0 <= args.doc_seed <= (1 << 64) - args.n_docs:
        raise ConfigError(f"--doc-seed {args.doc_seed}: the document seeds --doc-seed + i, "
                          f"i < {args.n_docs}, must lie in [0, 2**64)")
    cfg = variants[0]
    _check_memory(cfg)
    docs = [(f"synthetic-{i}",
             make_repeated_chunk_doc(args.n_chunks, cfg.chunk_len, cfg.overlap,
                                     cfg.vocab_size, args.doc_seed + i))
            for i in range(args.n_docs)]
    with _published(args.out_dir) as out_dir:
        weights = init_weights(cfg.encoder_config())
        rows: list[list] = [["alpha", "probe_mse"]]
        rows.extend([repr(variant.alpha), repr(position_probe([run.fused for run in runs]))]
                    for variant, (runs, _, _) in zip(variants, sweep(docs, variants, weights)))
        _write_csv(out_dir / "probe.csv" if out_dir else None, rows)
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> _Parser:
    parser = _Parser(prog="chunkfuse",
                     description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="dump overlapping windows per document")
    _common_flags(p)
    p.add_argument("corpus", type=Path)
    p.add_argument("--include-tokens", action="store_true")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("pipeline", help="run the full pipeline over a corpus")
    _common_flags(p)
    p.add_argument("corpus", type=Path)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("ablate", help="sweep one axis and record probe/size/cost")
    _common_flags(p)
    p.add_argument("corpus", type=Path)
    p.add_argument("--axis", choices=["alpha", "middle-count", "overlap"], required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("bench", help="measure scaling against document length")
    _common_flags(p)
    p.add_argument("--lengths", default="8192,16384,32768,65536")
    p.add_argument("--repeats", type=_at_least(1), default=3)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("rouge", help="score candidate summaries against references")
    _out_dir_flag(p)
    p.add_argument("candidates", type=Path)
    p.add_argument("references", type=Path)
    p.set_defaults(func=cmd_rouge)

    p = sub.add_parser("probe", help="position-probe mse across fusion ratios")
    _common_flags(p)
    p.add_argument("--alphas", default="0.0,0.25,0.5,0.75,1.0")
    p.add_argument("--n-chunks", type=_at_least(PROBE_MIN_CHUNKS), default=5)
    p.add_argument("--n-docs", type=_at_least(1), default=3)
    p.add_argument("--doc-seed", type=_at_least(None), default=11)
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ChunkfuseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
