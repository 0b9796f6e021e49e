"""
Cost versus document length
===========================

Chunk count grows linearly with the document and per-chunk cost is
constant, so total encode time should track N almost exactly. The
boundary-fusion scan touches each chunk once and is lost in the noise
next to encoding.

This demo uses a lightweight configuration; expect roughly linear
timings within a few seconds of wall clock.
"""

from chunkfuse.bench import run_scaling
from chunkfuse.pipeline import PipelineConfig

cfg = PipelineConfig(
    chunk_len=256, overlap=32, boundary_width=1, middle_count=32,
    alpha=0.5, d_model=16, n_heads=2, n_layers=1, d_ff=32,
    vocab_size=128, seed=21,
)

report = run_scaling([4096, 8192, 16384, 32768], cfg, repeats=3)

print("      N  chunks  encode_s   fuse_s  memory_rows  naive_rows")
for p in report.points:
    print(f"{p.n_tokens:>7}  {p.n_chunks:>6}  {p.encode_seconds:>8.4f}  "
          f"{p.fuse_seconds:>7.5f}  {p.memory_rows:>11}  {p.naive_rows:>10}")

print(f"\nlog-log slope of total time vs N: {report.slope:.3f} "
      "(1.0 means perfectly linear)")
print(f"fusion cost relative to encoding at the largest N: "
      f"{report.fuse_encode_ratio:.4f}")
largest = report.points[-1]
print(f"decoder-input compression vs naive concatenation: "
      f"{largest.memory_rows / largest.naive_rows:.4f}")
if not report.reliable:
    print("note: smallest point ran close to timer resolution")
