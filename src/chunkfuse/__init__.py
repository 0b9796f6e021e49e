"""Overlapping-chunk encoding with cumulative boundary fusion.

Long token streams are cut into fixed overlapping windows, each window
is encoded independently by a frozen transformer, and the per-chunk
boundary states are blended with running averages of everything before
and after them. The decoder then reads a short assembled memory
instead of every encoded token.
"""

from .bench import ScalingReport, compare_naive_concat, run_scaling
from .cumulation import (
    ROLES,
    FusedSequence,
    assemble,
    contexts,
    fuse,
    fused_sequence_manifest,
)
from .decoder import attention_mass_by_chunk, decode, decode_step, init_decoder_weights
from .encoder import EncoderWeights, ModelConfig, encode, init_weights
from .errors import ChunkfuseError, ConfigError, InputError
from .metrics import (
    RougeScore,
    lcs_length,
    make_random_doc,
    make_repeated_chunk_doc,
    position_probe,
    rouge_l,
    rouge_n,
)
from .numerics import SeededRng, load_matrix, save_matrix
from .pipeline import (
    DocumentRun,
    PipelineConfig,
    encode_document,
    greedy_decode,
    run_document,
    sweep,
)
from .segmenter import SegmentSet, segment, segment_count

__version__ = "0.1.0"
