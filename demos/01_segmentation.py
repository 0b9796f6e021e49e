"""
Overlapping segmentation
========================

Cut a token stream into fixed windows that share a few positions with
their neighbors, then stitch the original stream back together.
"""

from chunkfuse import segment

tokens = list(range(100, 126))  # 26 fake token ids

# windows of 8 tokens, consecutive windows sharing 3 positions
windows = segment(tokens, chunk_len=8, overlap=3)

# the windows are two arrays: one row of token ids and one start per window
print(f"{len(tokens)} tokens -> {windows.count} windows "
      f"(stride {windows.chunk_len - windows.overlap})\n")
print("idx  start  tokens")
for i, (start, row) in enumerate(zip(windows.starts, windows.tokens), start=1):
    print(f"{i:>3}  {start:>5}  {row.tolist()}")

# the last window is anchored to the end of the stream, so it can share
# more than `overlap` positions with its neighbor but is never padded
roundtrip = [None] * len(tokens)
for start, row in zip(windows.starts, windows.tokens):
    roundtrip[start:start + len(row)] = row.tolist()  # shared positions agree
print("\nreconstruction matches the input:", roundtrip == tokens)
