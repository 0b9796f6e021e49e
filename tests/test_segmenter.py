import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reconstruct, windows_one_by_one

from chunkfuse.errors import ConfigError, InputError
from chunkfuse.segmenter import (
    SegmentSet,
    segment,
    segment_count,
    segment_set_to_dict,
)


def test_hand_case_n10_l4_o2():
    segs = segment(list(range(10)), 4, 2)
    assert segs.starts.tolist() == [0, 2, 4, 6]
    assert segs.count == 4
    assert segs.tokens.shape == (4, 4)
    assert segs.tokens[1].tolist() == [2, 3, 4, 5]
    assert segs.tokens.dtype == segs.starts.dtype == np.int64


def test_short_input_single_window():
    segs = segment([7, 8, 9], 1024, 150)
    assert segs.count == 1
    assert segs.tokens.tolist() == [[7, 8, 9]]
    assert segs.starts.tolist() == [0]


def test_reference_defaults_window():
    # 1024-token windows overlapping by 150 are the stock setting
    segs = segment(list(range(5000)), 1024, 150)
    assert segs.chunk_len == 1024 and segs.overlap == 150
    assert segs.tokens.shape[1] == 1024


def test_anchored_tail_keeps_full_length():
    segs = segment(list(range(11)), 4, 2)
    # stride-2 starts would be 0,2,4,6,8 but 8+4 > 11, so the last
    # window is pulled back to end at the sequence end
    assert segs.starts.tolist() == [0, 2, 4, 6, 7]
    assert segs.tokens.shape == (5, 4)


def test_overlap_must_be_below_chunk_len():
    with pytest.raises(ConfigError, match="non-positive"):
        segment([1, 2, 3], 4, 4)


def test_chunk_len_minimum():
    with pytest.raises(ConfigError):
        segment([1, 2, 3], 1, 0)


def test_chunk_len_fits_int64_starts():
    # a stride past int64 once raised OverflowError in numpy, a program fault
    assert segment([1, 2, 3], (1 << 63) - 1, 150).starts.tolist() == [0]
    with pytest.raises(ConfigError, match=r"\[2, 2\*\*63\), got 100000000000000000000000"):
        segment([1, 2, 3], 10**23, 150)


def test_negative_overlap():
    with pytest.raises(ConfigError):
        segment([1, 2, 3], 4, -1)


def test_empty_sequence():
    with pytest.raises(InputError):
        segment([], 4, 2)


def test_float_ids_are_refused_not_truncated():
    with pytest.raises(InputError, match="got float64 values"):
        segment([1.9, 2.9, 3.9, 4.2], 2, 0)


def test_digit_strings_are_refused_not_parsed():
    with pytest.raises(InputError, match="got <U1 values"):
        segment(["3", "4", "5"], 2, 0)


@pytest.mark.parametrize("tokens, dtype", [([True, False, True], "bool"),
                                           ([1 << 63], "uint64"), ([-1, 1 << 63], "float64"),
                                           ([1 << 64], "object")])
def test_bools_and_ids_past_int64_are_refused(tokens, dtype):
    with pytest.raises(InputError, match=f"integers in int64's range, got {dtype} values"):
        segment(tokens, 2, 0)


def test_integer_arrays_of_any_width_segment_alike():
    want = segment(list(range(9)), 4, 1).tokens
    for dtype in (np.uint8, np.int32, np.uint64):
        got = segment(np.arange(9, dtype=dtype), 4, 1).tokens
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()


def test_count_formula_matches_construction():
    rnd = random.Random(0)
    for _ in range(300):
        chunk_len = rnd.randint(2, 40)
        overlap = rnd.randint(0, chunk_len - 1)
        n = rnd.randint(1, 400)
        segs = segment(range(n), chunk_len, overlap)
        assert segs.count == segment_count(n, chunk_len, overlap)
        assert segs.tokens.shape[0] == segs.count


def _check_invariants(segs: SegmentSet, n: int) -> None:
    chunk_len, overlap = segs.chunk_len, segs.overlap
    width = segs.tokens.shape[1]
    covered = set()
    for start in segs.starts.tolist():
        covered.update(range(start, start + width))
    assert covered == set(range(n)), "coverage has gaps"
    if n > chunk_len:
        assert width == chunk_len
        pairs = list(zip(segs.starts.tolist(), segs.starts[1:].tolist()))
        for idx, (a, b) in enumerate(pairs):
            shared = (a + width) - b
            assert shared >= overlap
            if idx < len(pairs) - 1:
                assert shared == overlap


def test_round_trip_and_invariants_random():
    rnd = random.Random(1)
    for _ in range(200):
        chunk_len = rnd.randint(2, 50)
        overlap = rnd.randint(0, chunk_len - 1)
        n = rnd.randint(1, 2000)
        tokens = tuple(rnd.randrange(1000) for _ in range(n))
        segs = segment(tokens, chunk_len, overlap)
        assert reconstruct(segs) == tokens
        _check_invariants(segs, n)


@given(st.integers(2, 30), st.data())
@settings(max_examples=80, deadline=None)
def test_round_trip_property(chunk_len, data):
    overlap = data.draw(st.integers(0, chunk_len - 1))
    tokens = tuple(data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=300)))
    segs = segment(tokens, chunk_len, overlap)
    assert reconstruct(segs) == tokens


@given(st.integers(2, 30), st.data())
@settings(max_examples=200, deadline=None)
def test_matches_window_by_window_oracle(chunk_len, data):
    overlap = data.draw(st.integers(0, chunk_len - 1))
    tokens = data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=300))
    segs = segment(tokens, chunk_len, overlap)
    want = windows_one_by_one(tokens, chunk_len, overlap)
    assert segs.starts.tolist() == [start for start, _ in want]
    assert segs.tokens.tolist() == [list(window) for _, window in want]


def test_linear_growth_of_chunk_count():
    # with overlap at most half a window, doubling the input never more
    # than doubles the window count plus one
    rnd = random.Random(2)
    for _ in range(100):
        chunk_len = rnd.randint(2, 64)
        overlap = rnd.randint(0, chunk_len // 2)
        n = rnd.randint(chunk_len + 1, 5000)
        assert segment_count(2 * n, chunk_len, overlap) <= \
            2 * (segment_count(n, chunk_len, overlap) + 1)


def test_reconstruct_rejects_gap():
    bad = SegmentSet(tokens=np.array([[1, 2], [9, 9]]), starts=np.array([0, 3]),
                     chunk_len=2, overlap=0)
    with pytest.raises(InputError, match="window 2 starts at 3"):
        reconstruct(bad)


def test_json_form():
    segs = segment([5, 6, 7, 8, 9, 10], 4, 2)
    d = segment_set_to_dict(segs)
    assert d["L"] == 4 and d["O"] == 2
    assert d["segments"][0] == {"i": 1, "start": 0, "len": 4}
    assert "tokens" not in d["segments"][0]
    with_payload = segment_set_to_dict(segs, include_tokens=True)
    assert with_payload["segments"][0]["tokens"] == [5, 6, 7, 8]
