"""
Full pipeline on one document
=============================

Segment, encode every chunk with the frozen encoder, fuse boundaries,
sample interior rows, assemble the compressed decoder memory, and take
one greedy decode step over it.
"""

import numpy as np

from chunkfuse import ROLES, attention_mass_by_chunk, decode_step
from chunkfuse.metrics import make_random_doc
from chunkfuse.pipeline import PipelineConfig, greedy_decode, run_document

cfg = PipelineConfig(
    chunk_len=64, overlap=16, boundary_width=2, middle_count=6,
    alpha=0.5, d_model=32, n_heads=4, n_layers=2, d_ff=64,
    vocab_size=128, seed=7,
)

doc = make_random_doc(400, cfg.vocab_size, seed=3)
run = run_document(doc, cfg, doc_id="demo")

segs = run.segments
print(f"document: {len(doc)} tokens -> {segs.count} chunks of {cfg.chunk_len} "
      f"(overlap {cfg.overlap})")

rows_per_chunk = 2 * cfg.boundary_width + cfg.middle_count
print(f"memory: {segs.count} chunks x {rows_per_chunk} rows = "
      f"{run.fused.rows} rows, versus {segs.count * cfg.chunk_len} "
      "rows if every encoded token were handed to the decoder")

print("\nfirst chunk's rows in the assembled memory:")
for chunk, role, position in run.fused.provenance[:rows_per_chunk].tolist():
    print(f"  chunk {chunk}  {ROLES[role]:<6}  source position {position}")

# one decode step: cross-attention spans every memory row
dec_cfg = cfg.decoder_config(max_len=24)
logits, cross = decode_step([0, 1, 2], run.fused, dec_cfg)
print(f"\ndecode step: logits {logits.shape}, cross-attention {cross.shape}")

mass = attention_mass_by_chunk(cross, run.fused.provenance)
print("attention mass per chunk:", np.round(mass, 3), "sum", round(mass.sum(), 6))

print("\ngreedy continuation from [0]:",
      greedy_decode([0], run.fused, dec_cfg, steps=12)[1:])
