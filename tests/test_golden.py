"""Golden hashes of the run artifacts that do not depend on the platform.

``segments.json`` and ``fused_manifest.json`` hold only ints and config
values: window layout, sampled middle positions, provenance, shortfall
and short chunks. Their bytes follow from the segmenter, the seeded
middle sampler and the assembly alone, so they are pinned here for
``chunkfuse pipeline`` on both shipped corpora with README's flags and
on a corpus of short documents. The matrix, decode and attention files
are left out: their float rounding can differ between BLAS builds. The
per-document files of ``chunkfuse segment --include-tokens --out-dir``,
which add every window's token ids, are pinned for the same corpora.

The seeded encoder and decoder weights of the benchmark's three model
configs are pinned too. They involve no BLAS: each entry is SplitMix64
integers, correctly rounded arithmetic, and libm's ``log``, ``sin`` and
``cos``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from chunkfuse.cli import main
from chunkfuse.decoder import init_decoder_weights
from chunkfuse.encoder import ModelConfig, init_weights

ROOT = Path(__file__).resolve().parents[1]
README_FLAGS = ["--chunk-len", "64", "--overlap", "16", "--middle-count", "8",
                "--d-model", "32", "--n-heads", "4", "--n-layers", "2", "--d-ff", "64"]
# at boundary_width 3 and 8 middles: a window shorter than 2k, one shorter
# than 2k + m, and a document of two full windows
SHORT_DOCS = {"below-2k": 4, "below-2k-m": 10, "multi": 100}

GOLDEN = {
    "tiny_tokens": {
        "synth-1": ("ba340532352f587f77e09b351b507200e08ff06589defffb9917ae15d2d816dc",
                    "1b6e80fb3b50767ca0cbe0872014a1c661316b1b23c72aa45c5400899eea92ea"),
        "synth-2": ("fbc75a94864924e5d22a1d1bd036cf135b67d3104e771ce31db3c7a263dde255",
                    "36ca7685c80ceb2207247cb7a41ea7de06c9a5afb07c0056ccf26b71141f86d9"),
        "synth-3": ("460abd7f8e100db12baa27be0007f1d37592bb80765e0f889b387d0c5042fec1",
                    "2c01aa3fe045601e6f3ef3c243e6f8ecec6d3266fd230c0b16c89a3018c951ef"),
    },
    "tiny_text": {
        "memo-1": ("8f4960bfb07f4e7a4dc682928ae95345616b7cdb3e05a0627aa95b686bdaad3c",
                   "3e27f04df1b9bf8cd4b369ea66412e89c31cac72bfb07773ca1552264da058b2"),
        "memo-2": ("e45ff575b949f49d39cc1a49f8ca26da7cac4dc0fa23906daf8df6bc64848e3e",
                   "ac9d5d9eaa2d47827752b17ad539df64e0aab6ccf2922c531193353db5bce393"),
        "memo-3": ("ae73fd1b416353856691686153762f0b9cd4fef497d47cb9cee85192281bc928",
                   "b8ce07643ced1c5379a4d8f696a1602b78e10cec8d6eebee47e2601f3055260b"),
    },
    "short": {
        "below-2k": ("72328d4f01e020e23d8fde10d0a904a707fc7379f0594bd4e7f4be026315b2b0",
                     "2d7ebb80bcd84e1ae1dcf08594b1f4fe8569a41affcb22b44fd6929374deb242"),
        "below-2k-m": ("e0a2892d93a17094e1fb68a11f7a7d996d52d2cded71de27dae8f1ad1c8d51c8",
                       "7634b9005e302a47e6cf582b43ed1b7454cf2f3811b0cdb8391b0a457449b31e"),
        "multi": ("417553638c60798ba26882936ec0509a6c0c06d54f4764de8ab7e0fb60f44f52",
                  "752df1fdddacad09c3de1d87722542df2146df1f97681efa150ff1ccf5b8e265"),
    },
}

SEGMENT_GOLDEN = {
    "tiny_tokens": {
        "synth-1": "d1b25039d497a36985809e7a156e6d59c15f5c418f033533d767afd9e89b9e3a",
        "synth-2": "1ab85cf461fc58e44fb42c737455380cce4008cb980fa501e2cb556f4a164fdb",
        "synth-3": "f86cbd4435d088c50bc68da9e4a811765149b6607828b08b9c265c78d29bf9b3",
    },
    "tiny_text": {
        "memo-1": "8628417f757b8ef71ce0c8ab2375c75dfd0be702cf7a25483f5d6bba54f1278d",
        "memo-2": "175b2a3bed52aea5f24dbbcea2f921976e93a996fe5c15b451dad684b7189c84",
        "memo-3": "f715a11854e30a21cd46b0c35779f90337f66b139fa2cd9f62d65bf8c13843b3",
    },
    "short": {
        "below-2k": "1c0fad069c1163392faf29c019fc9b8eec44960518440547680cafd60d39fff1",
        "below-2k-m": "3685d353f932872abe8e4653b8a830f716ac9bd42f9ecb0c19d48bf67472aace",
        "multi": "4a585c989dfcb4af4b7734bf7329459a9e9e587db0ccfb3f8f0ae9553320e87a",
    },
}


def corpus_and_flags(name: str, tmp_path: Path) -> tuple[Path, list[str]]:
    if name != "short":
        return ROOT / "corpora" / f"{name}.jsonl", README_FLAGS
    path = tmp_path / "short.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, n in SHORT_DOCS.items():
            fh.write(json.dumps({"id": doc_id,
                                 "tokens": [(7 * i + 3) % 64 for i in range(n)]}) + "\n")
    return path, [*README_FLAGS, "--boundary-width", "3"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_integer_artifacts_match_golden_hashes(name, tmp_path):
    corpus, flags = corpus_and_flags(name, tmp_path)
    out = tmp_path / "run"
    assert main(["pipeline", str(corpus), "--out-dir", str(out), *flags]) == 0
    docs = out / "docs"
    got = {d.name: (sha256(d / "segments.json"), sha256(d / "fused_manifest.json"))
           for d in sorted(docs.iterdir())}
    assert got == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SEGMENT_GOLDEN))
def test_segment_files_match_golden_hashes(name, tmp_path):
    corpus, flags = corpus_and_flags(name, tmp_path)
    out = tmp_path / "segments"
    assert main(["segment", str(corpus), "--include-tokens", "--out-dir", str(out),
                 *flags]) == 0
    got = {p.name.removesuffix(".segments.json"): sha256(p) for p in sorted(out.iterdir())}
    assert got == SEGMENT_GOLDEN[name]


# perfbench's model configs, as PipelineConfig.encoder_config() gives them;
# n_heads and max_len do not enter the draw, so the first two share weights
WEIGHT_CONFIGS = {
    "long-doc": dict(vocab_size=128, d_model=32, n_heads=2, n_layers=2, d_ff=64, max_len=1024),
    "small-window": dict(vocab_size=128, d_model=32, n_heads=4, n_layers=2, d_ff=64, max_len=64),
    "wide-corpus": dict(vocab_size=1024, d_model=256, n_heads=4, n_layers=2, d_ff=1024,
                        max_len=256),
}
# (encoder at seed 7, decoder at seed 8, the offset PipelineConfig.decoder_config uses)
WEIGHT_GOLDEN = {
    "long-doc": ("4a1fefa43f93eed89382fcb3674e2ffe47f1b927aa4b63c1f183f21b3a425b45",
                 "6a565e9798608e06631f821659ec1ca22a1ebc2bf31708230d4c344339f78d61"),
    "small-window": ("4a1fefa43f93eed89382fcb3674e2ffe47f1b927aa4b63c1f183f21b3a425b45",
                     "6a565e9798608e06631f821659ec1ca22a1ebc2bf31708230d4c344339f78d61"),
    "wide-corpus": ("c72470ad229217d8f924883f6b6b367b9b79bf286b2eb7bd44b2428399e8797e",
                    "d51e2f16115ed2e6e6ce53ea386fd5effba54d8fb05a07714c7507053ea67c21"),
}


def weights_sha256(weights) -> str:
    """sha256 of every weight array's bytes, in dataclass field order; the config is no array."""
    h = hashlib.sha256()

    def feed(w):
        if isinstance(w, ModelConfig):
            return
        if dataclasses.is_dataclass(w):
            for f in dataclasses.fields(w):
                feed(getattr(w, f.name))
        elif isinstance(w, tuple):
            for x in w:
                feed(x)
        else:
            h.update(w.tobytes())

    feed(weights)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WEIGHT_CONFIGS))
def test_model_weights_match_golden_hashes(name):
    dims = WEIGHT_CONFIGS[name]
    got = (weights_sha256(init_weights(ModelConfig(seed=7, **dims))),
           weights_sha256(init_decoder_weights(ModelConfig(seed=8, **dims))))
    assert got == WEIGHT_GOLDEN[name]
