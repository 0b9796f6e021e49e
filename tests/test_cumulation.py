from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    assemble_per_chunk,
    backward_context,
    forward_context,
    fsum_context,
    fusion_jacobian,
    kept_rows,
    mean_of,
    sample_indices_per_value,
    synthetic_chunks,
)

from chunkfuse import encoder, pipeline
from chunkfuse.cumulation import (
    LEFT,
    MIDDLE,
    RIGHT,
    ROLES,
    assemble,
    contexts,
    fuse,
    fused_sequence_manifest,
)
from chunkfuse.errors import ConfigError, InputError
from chunkfuse.numerics import SeededRng
from chunkfuse.pipeline import (
    PipelineConfig,
    middle_rng_for,
    run_document,
    sample_document_middles,
)
from chunkfuse.segmenter import segment


def fusion_config(k: int, m: int, alpha: float = 0.5) -> PipelineConfig:
    """A config for the fusion stage: it reads only k, m, alpha and the seeds."""
    return PipelineConfig(chunk_len=max(2, 2 * k + m), overlap=0, boundary_width=k,
                          middle_count=m, alpha=alpha)


def scalar_set() -> tuple[np.ndarray, np.ndarray]:
    """The worked 3-chunk example: lefts 1,3,5 and rights 2,4,6."""
    return (np.array([1.0, 3.0, 5.0]).reshape(3, 1, 1),
            np.array([2.0, 4.0, 6.0]).reshape(3, 1, 1))


def random_set(rng: np.random.Generator, n_chunks=None, width=None, dim=None):
    c = n_chunks or int(rng.integers(1, 7))
    k = width or int(rng.integers(1, 4))
    d = dim or int(rng.integers(1, 9))
    return rng.normal(size=(c, k, d)), rng.normal(size=(c, k, d))


def oracle_backward(lefts, rights, i: int) -> np.ndarray:
    """Materialize every contributing block and average them."""
    blocks = [lefts[i - 1]]
    for j in range(i - 1):
        blocks.extend([lefts[j], rights[j]])
    return mean_of(blocks)


def oracle_forward(lefts, rights, i: int) -> np.ndarray:
    blocks = [rights[i - 1]]
    for j in range(i, len(lefts)):
        blocks.extend([lefts[j], rights[j]])
    return mean_of(blocks)


def run_on_encodings(segs, encs: np.ndarray, cfg: PipelineConfig, doc_id: str):
    """``run_document``'s memory for the windows ``segs``, as if ``encs`` were their encodings.

    The pipeline picks each chunk's kept rows and their positions as it
    always does; a stub encoder hands back those rows of ``encs``.
    """
    windows = iter(encs)
    with mock.patch.object(pipeline, "segment", lambda *_: segs), \
            mock.patch.object(encoder, "encode", lambda _t, _w, _c, keep: next(windows)[keep]):
        return run_document([], cfg, weights=object(), doc_id=doc_id).fused


def kept_boundaries(encs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows the pipeline keeps as one chunk's left and right blocks, at alpha 1."""
    n = encs.shape[1]
    fused = run_on_encodings(segment(range(n), max(n, 2), 0), encs, fusion_config(k, 0, 1.0),
                             "doc")
    return fused.flattened[:k], fused.flattened[k:]


class TestExtractBoundaries:
    def test_width_one(self):
        enc = np.arange(10.0).reshape(5, 2)
        lefts, rights = kept_boundaries(enc[None], 1)
        np.testing.assert_array_equal(lefts, [[0.0, 1.0]])
        np.testing.assert_array_equal(rights, [[8.0, 9.0]])

    def test_width_two(self):
        rows = np.arange(15.0).reshape(5, 3)
        lefts, rights = kept_boundaries(rows[None], 2)
        np.testing.assert_array_equal(lefts, rows[:2])
        np.testing.assert_array_equal(rights, rows[3:])

    def test_short_chunk_policy_shares_rows(self):
        rows = np.arange(6.0).reshape(3, 2)
        lefts, rights = kept_boundaries(rows[None], 2)
        np.testing.assert_array_equal(lefts, rows[:2])
        np.testing.assert_array_equal(rights, rows[1:])

    def test_too_short_even_for_sharing(self):
        with pytest.raises(InputError):
            run_on_encodings(segment([0], 2, 0), np.zeros((1, 1, 2)), fusion_config(2, 0),
                             "doc")
        cfg = PipelineConfig(chunk_len=8, overlap=0, boundary_width=2, middle_count=0,
                             d_model=8, n_heads=2, n_layers=1, d_ff=8, vocab_size=8)
        with pytest.raises(InputError):
            run_document([0], cfg)

    def test_no_chunks_and_zero_width(self):
        with pytest.raises(InputError):
            segment([], 4, 0)
        with pytest.raises(ConfigError):
            fusion_config(0, 0)


class TestDirectionalContext:
    def test_scalar_trace_backward(self):
        lefts, rights = scalar_set()
        assert backward_context(lefts, rights, 1)[0, 0] == 1.0
        assert backward_context(lefts, rights, 2)[0, 0] == 2.0
        assert backward_context(lefts, rights, 3)[0, 0] == 3.0
        assert contexts(lefts, rights)[0].ravel().tolist() == [1.0, 2.0, 3.0]

    def test_scalar_trace_forward(self):
        lefts, rights = scalar_set()
        assert forward_context(lefts, rights, 1)[0, 0] == 4.0
        assert forward_context(lefts, rights, 2)[0, 0] == 5.0
        assert forward_context(lefts, rights, 3)[0, 0] == 6.0
        assert contexts(lefts, rights)[1].ravel().tolist() == [4.0, 5.0, 6.0]

    def test_single_chunk_edges(self):
        rng = np.random.default_rng(0)
        lefts, rights = random_set(rng, n_chunks=1)
        back, fwd = contexts(lefts, rights)
        np.testing.assert_array_equal(back[0], lefts[0])
        np.testing.assert_array_equal(fwd[0], rights[0])
        np.testing.assert_array_equal(backward_context(lefts, rights, 1), lefts[0])
        np.testing.assert_array_equal(forward_context(lefts, rights, 1), rights[0])

    def test_constant_boundaries_give_constant_context(self):
        block = np.full((4, 2, 3), 0.7)
        back, fwd = contexts(block, block)
        for i in range(1, 5):
            np.testing.assert_allclose(back[i - 1], block[0], atol=1e-15)
            np.testing.assert_allclose(fwd[i - 1], block[0], atol=1e-15)
            np.testing.assert_allclose(backward_context(block, block, i), block[0], atol=1e-15)
            np.testing.assert_allclose(forward_context(block, block, i), block[0], atol=1e-15)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            lefts, rights = random_set(rng)
            back, fwd = contexts(lefts, rights)
            for i in range(1, len(lefts) + 1):
                want_back = oracle_backward(lefts, rights, i)
                want_fwd = oracle_forward(lefts, rights, i)
                for got, want in ((backward_context(lefts, rights, i), want_back),
                                  (forward_context(lefts, rights, i), want_fwd),
                                  (back[i - 1], want_back),
                                  (fwd[i - 1], want_fwd)):
                    assert np.max(np.abs(got - want)) < 1e-12

    def test_edge_identities_bitwise(self):
        rng = np.random.default_rng(2)
        lefts, rights = random_set(rng, n_chunks=5)
        back, fwd = contexts(lefts, rights)
        np.testing.assert_array_equal(back[0], lefts[0])
        np.testing.assert_array_equal(fwd[-1], rights[-1])

    def test_reversal_duality(self):
        # mirroring the chunk order and swapping the sides turns the
        # forward context into the backward context
        rng = np.random.default_rng(3)
        for _ in range(20):
            lefts, rights = random_set(rng)
            c = len(lefts)
            mirrored_back, _ = contexts(rights[::-1], lefts[::-1])
            _, fwd = contexts(lefts, rights)
            for i in range(1, c + 1):
                assert np.max(np.abs(mirrored_back[c - i] - fwd[i - 1])) < 1e-12

    def test_long_document_matches_fsum_oracle(self):
        # Summing n addends in any order errs by at most gamma(n - 1) times
        # the sum of their magnitudes (Higham, "Accuracy and Stability of
        # Numerical Algorithms", 2nd ed., section 4.2). The library's division,
        # the oracle's rounding and its division add three roundings.
        u = np.finfo(np.float64).eps / 2

        def gamma(n):
            return n * u / (1 - n * u)

        rng = np.random.default_rng(23)
        c = 10_000
        lefts, rights = (rng.normal(size=(c, 1, 4)) * 10.0 ** rng.uniform(-3, 3, (c, 1, 4))
                         for _ in range(2))
        back, fwd = contexts(lefts, rights)
        for i in sorted({1, 2, c - 1, c, *range(1, c + 1, 97)}):
            for got, direction in ((back[i - 1], "back"), (fwd[i - 1], "fwd")):
                want, magnitude, n = fsum_context(lefts, rights, i, direction)
                assert np.all(np.abs(got - want) <= gamma(n + 2) * magnitude / n)

    def test_prefix_consistency(self):
        rng = np.random.default_rng(4)
        lefts, rights = random_set(rng, n_chunks=5)
        back, fwd = contexts(lefts, rights)
        # replace the last two chunks entirely
        shape = (2, *lefts.shape[1:])
        altered_back, _ = contexts(np.concatenate([lefts[:3], rng.normal(size=shape)]),
                                   np.concatenate([rights[:3], rng.normal(size=shape)]))
        np.testing.assert_array_equal(back[:3], altered_back[:3])
        # and the mirror: earlier edits leave forward contexts alone
        shape = (1, *lefts.shape[1:])
        _, front_fwd = contexts(np.concatenate([rng.normal(size=shape), lefts[1:]]),
                                np.concatenate([rng.normal(size=shape), rights[1:]]))
        np.testing.assert_array_equal(fwd[1:], front_fwd[1:])

    def test_index_out_of_range(self):
        lefts, rights = scalar_set()
        with pytest.raises(IndexError):
            backward_context(lefts, rights, 0)
        with pytest.raises(IndexError):
            forward_context(lefts, rights, 4)


class TestFuse:
    def test_alpha_one_is_identity_bitwise(self):
        rng = np.random.default_rng(5)
        lefts, rights = random_set(rng, n_chunks=4)
        fused_lefts, fused_rights = fuse(lefts, rights, 1.0)
        np.testing.assert_array_equal(fused_lefts, lefts)
        np.testing.assert_array_equal(fused_rights, rights)

    def test_alpha_zero_first_chunk_fixed_point(self):
        rng = np.random.default_rng(6)
        lefts, rights = random_set(rng, n_chunks=4)
        fused_lefts, fused_rights = fuse(lefts, rights, 0.0)
        np.testing.assert_array_equal(fused_lefts[0], lefts[0])
        np.testing.assert_array_equal(fused_rights[-1], rights[-1])

    def test_scalar_trace_half(self):
        fused_lefts, _ = fuse(*scalar_set(), 0.5)
        assert fused_lefts[1, 0, 0] == 2.5

    def test_alpha_out_of_range(self):
        for alpha in (-0.1, 1.1):
            with pytest.raises(ConfigError):
                fuse(*scalar_set(), alpha)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        x = random_set(rng, n_chunks=4, width=2, dim=3)
        y = random_set(rng, n_chunks=4, width=2, dim=3)
        a_scl, b_scl, alpha = 1.7, -0.4, 0.3

        fused_combined = fuse(a_scl * x[0] + b_scl * y[0], a_scl * x[1] + b_scl * y[1], alpha)
        fused_x = fuse(*x, alpha)
        fused_y = fuse(*y, alpha)
        for side in (0, 1):
            want = a_scl * fused_x[side] + b_scl * fused_y[side]
            assert np.max(np.abs(fused_combined[side] - want)) < 1e-12

    def test_convexity_bound_width_one(self):
        rng = np.random.default_rng(8)
        for alpha in (0.0, 0.2, 0.5, 0.9, 1.0):
            lefts, rights = random_set(rng, width=1, n_chunks=5, dim=4)
            fused_lefts, _ = fuse(lefts, rights, alpha)
            for i in range(1, 6):
                sources = [lefts[i - 1]]
                for j in range(i - 1):
                    sources.extend([lefts[j], rights[j]])
                stack = np.stack(sources)
                lo, hi = stack.min(axis=0), stack.max(axis=0)
                f = fused_lefts[i - 1]
                assert np.all(f >= lo - 1e-12) and np.all(f <= hi + 1e-12)

    def test_structural_awareness_on_identical_chunks(self):
        # same content everywhere: only the cumulation can tell chunks apart
        rng = np.random.default_rng(9)
        lefts = np.repeat(rng.normal(size=(1, 1, 6)), 4, axis=0)
        rights = np.repeat(rng.normal(size=(1, 1, 6)), 4, axis=0)
        local_only, _ = fuse(lefts, rights, 1.0)
        for i in range(1, 4):
            np.testing.assert_array_equal(local_only[0], local_only[i])
        blended, _ = fuse(lefts, rights, 0.5)
        for i in range(1, 4):
            for j in range(i + 1, 5):
                gap = np.max(np.abs(blended[i - 1] - blended[j - 1]))
                assert gap > 0


class TestFusionJacobian:
    def test_first_chunk_coefficient_is_one(self):
        lefts, _ = scalar_set()
        for alpha in (0.0, 0.3, 1.0):
            jac = fusion_jacobian(lefts, alpha, 1)
            assert jac.d_fused_left[("L", 1)] == 1.0
            assert all(v == 0.0 for key, v in jac.d_fused_left.items()
                       if key != ("L", 1))

    def test_hand_coefficient(self):
        jac = fusion_jacobian(scalar_set()[0], 0.5, 2)
        assert jac.d_fused_left[("L", 1)] == pytest.approx(1.0 / 6, abs=1e-15)
        assert jac.d_fused_left[("R", 1)] == pytest.approx(1.0 / 6, abs=1e-15)
        assert jac.d_fused_left[("L", 2)] == pytest.approx(0.5 + 0.5 / 3, abs=1e-15)
        assert jac.d_fused_left[("R", 2)] == 0.0
        assert jac.d_fused_left[("L", 3)] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        h = 1e-5
        for _ in range(25):
            lefts, rights = random_set(rng, n_chunks=int(rng.integers(2, 6)), width=1, dim=2)
            c = len(lefts)
            alpha = float(rng.uniform())
            i = int(rng.integers(1, c + 1))
            jac = fusion_jacobian(lefts, alpha, i)
            for side, j in [("L", int(rng.integers(1, c + 1))),
                            ("R", int(rng.integers(1, c + 1)))]:
                fd_l, fd_r = _central_difference(lefts, rights, alpha, i, side, j,
                                                 (0, 0), h)
                assert abs(fd_l - jac.d_fused_left[(side, j)]) < 1e-6
                assert abs(fd_r - jac.d_fused_right[(side, j)]) < 1e-6

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            fusion_jacobian(scalar_set()[0], 0.5, 4)


def _central_difference(lefts, rights, alpha, i, side, j, entry, h):
    """FD of the library's fused blocks at chunk i w.r.t. one source entry."""
    def perturbed(delta):
        blocks = {"L": lefts.copy(), "R": rights.copy()}
        blocks[side][(j - 1, *entry)] += delta
        fused_lefts, fused_rights = fuse(blocks["L"], blocks["R"], alpha)
        return fused_lefts[(i - 1, *entry)], fused_rights[(i - 1, *entry)]

    up_l, up_r = perturbed(h)
    dn_l, dn_r = perturbed(-h)
    return (up_l - dn_l) / (2 * h), (up_r - dn_r) / (2 * h)


def sample_middles(n: int, m: int, k: int, seed: int, chunks: int = 1) -> np.ndarray:
    """``sample_document_middles`` over ``chunks`` back-to-back windows of n rows."""
    segs = segment(range(n * chunks), max(n, 2), 0)
    return sample_document_middles(segs, fusion_config(k, m), SeededRng(seed))


class TestSampleMiddle:
    def test_zero_request_is_empty(self):
        assert sample_middles(10, 0, 1, 0).shape == (1, 0)

    def test_exhaustion_takes_whole_interior_in_order(self):
        assert sample_middles(6, 99, 1, 0).tolist() == [[1, 2, 3, 4]]

    def test_indices_sorted_distinct_interior(self):
        for idx in sample_middles(50, 10, 2, 3, chunks=3).tolist():
            assert idx == sorted(idx)
            assert len(set(idx)) == 10
            assert all(2 <= i < 48 for i in idx)

    def test_equal_seeds_equal_selection(self):
        a = sample_middles(100, 20, 1, 42, chunks=2)
        b = sample_middles(100, 20, 1, 42, chunks=2)
        np.testing.assert_array_equal(a, b)

    def test_short_interior_no_error(self):
        # boundary rows eat the whole chunk; nothing to sample
        assert sample_middles(4, 5, 2, 1).shape == (1, 0)


def assemble_synthetic(rng, n_chunks, width, middle_indices, dim, chunk_len=None,
                       middle_requested=None):
    """Random chunks whose kept rows are fused at alpha 0.5 and assembled."""
    middle_indices = np.asarray(middle_indices, dtype=np.int64).reshape(n_chunks, -1)
    if chunk_len is None:
        chunk_len = 2 * width + middle_indices.shape[1]
    starts, encs = synthetic_chunks(rng, n_chunks, chunk_len, dim)
    fused_lefts, fused_rights = fuse(encs[:, :width], encs[:, chunk_len - width:], 0.5)
    if middle_requested is None:
        middle_requested = middle_indices.shape[1]
    rows, positions = kept_rows(encs, width, middle_indices, starts)
    out = assemble(rows, positions, width, middle_requested, 0.5)
    # the memory is a copy: the kept rows stay as they were
    np.testing.assert_array_equal(rows, kept_rows(encs, width, middle_indices, starts)[0])
    return out, encs, fused_lefts, fused_rights


@st.composite
def chunked_documents(draw):
    """(segment set, k, m): 1 to 6 windows of one length n >= k, with n < 2k and t < m."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(0, 6))
    chunk_len = draw(st.integers(max(2, k), 12))
    overlap = draw(st.integers(0, chunk_len - 1))
    longest = chunk_len + 5 * (chunk_len - overlap)  # six windows
    return segment(range(draw(st.integers(k, longest))), chunk_len, overlap), k, m


class TestAssemble:
    def test_shape_instantiation(self):
        rng = np.random.default_rng(11)
        out, *_ = assemble_synthetic(rng, 3, 1, np.tile([1, 2], (3, 1)), 8)
        assert out.flattened.shape == (12, 8)
        assert out.rows == 3 * (2 * 1 + 2)

    def test_single_chunk_boundaries_only(self):
        rng = np.random.default_rng(12)
        out, _, fused_lefts, fused_rights = assemble_synthetic(rng, 1, 1, np.empty((1, 0)), 4)
        assert out.rows == 2
        np.testing.assert_array_equal(out.flattened[0:1], fused_lefts[0])
        np.testing.assert_array_equal(out.flattened[1:2], fused_rights[0])

    def test_block_order_and_roles(self):
        rng = np.random.default_rng(13)
        out, encs, _, _ = assemble_synthetic(rng, 2, 2, np.array([[2], [3]]), 3, chunk_len=6)
        roles = out.provenance[:, 1].tolist()
        assert roles == [LEFT, LEFT, MIDDLE, RIGHT, RIGHT] * 2
        chunks = out.provenance[:, 0].tolist()
        assert chunks == [1] * 5 + [2] * 5
        np.testing.assert_array_equal(out.flattened[2], encs[0][2])
        np.testing.assert_array_equal(out.flattened[7], encs[1][3])

    def test_missing_middle_block(self):
        rng = np.random.default_rng(14)
        starts, encs = synthetic_chunks(rng, 3, 4, 4)
        rows, positions = kept_rows(encs, 1, np.ones((3, 1), np.int64), starts)
        with pytest.raises(ConfigError):
            assemble(rows, positions[:2], 1, 1, 0.5)
        with pytest.raises(ConfigError):
            assemble(rows, positions, 2, 1, 0.5)  # 3 kept rows cannot hold two 2-row blocks

    def test_non_finite_kept_row_raises(self):
        rng = np.random.default_rng(15)
        starts, encs = synthetic_chunks(rng, 3, 4, 4)
        rows, positions = kept_rows(encs, 1, np.ones((3, 1), np.int64), starts)
        rows[1, -1, 0] = np.nan  # chunk 2's right boundary
        with pytest.raises(FloatingPointError, match="assembled sequence"):
            assemble(rows, positions, 1, 1, 0.5)

    def test_memory_owns_its_positions(self):
        # a caller that edits its positions after assemble, as a sweep over
        # alphas sharing one array might, changes neither provenance nor manifest
        rng = np.random.default_rng(16)
        starts, encs = synthetic_chunks(rng, 3, 4, 4)
        rows, positions = kept_rows(encs, 1, np.ones((3, 1), np.int64), starts)
        out = assemble(rows, positions, 1, 1, 0.5)
        provenance, manifest = out.provenance, fused_sequence_manifest(out)
        positions += 1
        np.testing.assert_array_equal(out.provenance, provenance)
        assert fused_sequence_manifest(out) == manifest

    def test_compressed_versus_naive_row_arithmetic(self):
        # 10 full windows at stock settings: 3020 assembled rows versus
        # 10240 under plain concatenation
        chunks, width, middle, chunk_len = 10, 1, 300, 1024
        assert chunks * (2 * width + middle) == 3020
        assert chunks * chunk_len == 10240

    def test_manifest_counts_shortfall(self):
        # one 3-row chunk at k = 1 has a single interior row for 3 requested
        rng = np.random.default_rng(17)
        out, *_ = assemble_synthetic(rng, 1, 1, np.array([[1]]), 4, chunk_len=3,
                                     middle_requested=3)
        manifest = fused_sequence_manifest(out)
        assert [role for _, role, _ in manifest["provenance"]].count("middle") == 1
        assert manifest["rows"] == out.rows
        assert manifest["middle_shortfall"] == {"1": 2}
        assert len(manifest["provenance"]) == out.rows

    @given(chunked_documents(), st.integers(1, 4), st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_chunk_oracle(self, case, dim, seed):
        segs, k, m = case
        rng = np.random.default_rng(seed)
        encs = rng.normal(size=(*segs.tokens.shape, dim))
        cfg = fusion_config(k, m)
        doc_id = f"doc-{seed}"
        got = run_on_encodings(segs, encs, cfg, doc_id)
        # one per-value sample per chunk in chunk order, from the document's stream
        draw = middle_rng_for(cfg, doc_id)
        n = segs.tokens.shape[1]
        interior = max(n - 2 * k, 0)
        idx = [sorted(k + i for i in sample_indices_per_value(draw, interior, min(m, interior)))
               for _ in range(segs.count)]
        fused = fuse(encs[:, :k], encs[:, n - k:], 0.5)
        want = assemble_per_chunk(*fused, list(encs), idx, segs.starts.tolist(), m)
        assert got.flattened.tobytes() == want.flattened.tobytes()
        np.testing.assert_array_equal(got.provenance, want.provenance)
        manifest = fused_sequence_manifest(got)
        assert manifest["short_chunks"] == want.short_chunks
        assert manifest["middle_shortfall"] == want.middle_shortfall


class TestBoundariesFromEncodings:
    """The encoding rows each chunk keeps, and the document positions they carry."""

    def test_offsets_recorded(self):
        rng = np.random.default_rng(18)
        encs = rng.normal(size=(3, 6, 4))
        segs = segment(list(range(14)), 6, 2)
        out = run_on_encodings(segs, encs, fusion_config(2, 0, 1.0), "doc")
        rows = out.flattened.reshape(3, 4, 4)
        np.testing.assert_array_equal(rows[1, :2], encs[1][:2])
        np.testing.assert_array_equal(rows[1, 2:], encs[1][4:])
        assert out.provenance[::4, 2].tolist() == [0, 4, 8]
        assert out.provenance[3::4, 2].tolist() == [5, 9, 13]

    def test_global_positions_in_provenance(self):
        rng = np.random.default_rng(19)
        encs = rng.normal(size=(2, 6, 2))
        segs = segment(list(range(10)), 6, 2)
        out = assemble(*kept_rows(encs, 1, [[2], [3]], segs.starts), 1, 1, 0.5)
        positions = [(c, ROLES[r], p) for c, r, p in out.provenance.tolist()]
        assert positions == [
            (1, "left", 0), (1, "middle", 2), (1, "right", 5),
            (2, "left", 4), (2, "middle", 7), (2, "right", 9),
        ]

    def test_fusion_config_validation(self):
        # the fusion hyperparameters are validated where they are set
        with pytest.raises(ConfigError):
            PipelineConfig(boundary_width=0)
        with pytest.raises(ConfigError):
            PipelineConfig(middle_count=-1)
        with pytest.raises(ConfigError):
            PipelineConfig(alpha=1.5)
