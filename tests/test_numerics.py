import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    layer_norm_mean_var,
    matrix_from_text_per_value,
    matrix_to_text_per_value,
    mean_of,
    next_u64,
    normal_matrix_per_value,
    randint_below,
    sample_indices_per_value,
    softmax_out_of_place,
    token_ids_per_value,
    uniform,
)

from chunkfuse.encoder import _layer_norm as layer_norm
from chunkfuse.encoder import _softmax_last as row_softmax
from chunkfuse.errors import ConfigError, InputError
from chunkfuse.numerics import SeededRng, fnv1a64, load_matrix, save_matrix


class TestMatmul:
    """The float64 ``@`` product every encoder and decoder projection uses."""

    def test_identity(self):
        a = np.array([[1.5, -2.0], [0.25, 7.0]])
        np.testing.assert_array_equal(np.eye(2) @ a, a)

    def test_hand_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        np.testing.assert_array_equal(a @ b, [[17.0], [39.0]])

    def test_associativity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(size=(rng.integers(1, 6), rng.integers(1, 6)))
            b = rng.normal(size=(a.shape[1], rng.integers(1, 6)))
            c = rng.normal(size=(b.shape[1], rng.integers(1, 6)))
            left = (a @ b) @ c
            right = a @ (b @ c)
            denom = np.maximum(np.abs(left), 1.0)
            assert np.max(np.abs(left - right) / denom) < 1e-9


@st.composite
def last_axis_arrays(draw, mask_entries: bool) -> np.ndarray:
    """2-D (rows x width) or 3-D (heads x queries x keys) arrays of width 1, 32 or 256.

    Some rows are made all of one value. With ``mask_entries``, rows also
    hold -inf entries, as masked scores do; every row keeps its first entry.
    """
    width = draw(st.sampled_from([1, 32, 256]))
    shape = (*draw(st.sampled_from([(), (1,), (4,)])), draw(st.integers(1, 5)), width)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=shape) * draw(st.sampled_from([1e-3, 1.0, 40.0]))
    a += draw(st.floats(-1e3, 1e3))
    rows = a.reshape(-1, width)  # a view: writes land in ``a``
    constant = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
    rows[constant] = rows[constant, :1]
    if mask_entries:
        hidden = rng.random(rows.shape) < draw(st.sampled_from([0.0, 0.5, 0.95]))
        hidden[:, 0] = False
        rows[hidden] = -np.inf
    return a


class TestRowSoftmax:
    def test_symmetric(self):
        np.testing.assert_allclose(row_softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_overflow_guard(self):
        out = row_softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_closed_form(self):
        out = row_softmax(np.array([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    @given(st.lists(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
                    min_size=1, max_size=5).filter(
                        lambda rows: len({len(r) for r in rows}) == 1),
           st.floats(-30, 30))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, rows, shift):
        a = np.array(rows, dtype=np.float64)
        out = row_softmax(a.copy())
        assert np.all(out > 0.0) and np.all(out < 1.0 + 1e-15)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        shifted = row_softmax(a + shift)
        np.testing.assert_allclose(shifted, out, atol=1e-12)

    def test_overwrites_and_returns_its_argument(self):
        a = np.array([[0.0, math.log(3.0)], [1.0, 1.0]])
        assert row_softmax(a) is a
        np.testing.assert_allclose(a, [[0.25, 0.75], [0.5, 0.5]], atol=1e-15)

    @given(last_axis_arrays(mask_entries=True))
    @settings(max_examples=80, deadline=None)
    def test_bitwise_the_out_of_place_oracle(self, a):
        expected = softmax_out_of_place(a)
        assert row_softmax(a.copy()).tobytes() == expected.tobytes()


class TestMeanOf:
    def test_singleton(self):
        a = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(mean_of([a]), a)

    def test_two_scalars(self):
        np.testing.assert_array_equal(
            mean_of([np.array([[1.0]]), np.array([[3.0]])]), [[2.0]])

    def test_against_sum_oracle(self):
        rng = np.random.default_rng(1)
        mats = [rng.normal(size=(1, 4)) for _ in range(5)]
        oracle = sum(mats) / 5.0
        assert np.max(np.abs(mean_of(mats) - oracle)) < 1e-12

    def test_empty_raises_value_error(self):
        with pytest.raises(ValueError):
            mean_of([])

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            mean_of([np.zeros((1, 2)), np.zeros((2, 1))])


class TestLayerNorm:
    # the encoder's layer norm fixes eps at 1e-5
    def test_constant_row(self):
        out = layer_norm(np.array([[5.0, 5.0, 5.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 0.0]], atol=1e-12)

    def test_two_point_row(self):
        # mean 0, variance 1, so the exact output is +-1/sqrt(1 + eps)
        out = layer_norm(np.array([[1.0, -1.0]]))
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out, [[expected, -expected]], atol=1e-12)
        np.testing.assert_allclose(out, [[1.0, -1.0]], atol=1e-5)

    def test_random_rows_are_centered(self):
        rng = np.random.default_rng(2)
        out = layer_norm(rng.normal(size=(7, 33)))
        assert np.max(np.abs(out.mean(axis=1))) < 1e-12

    @given(last_axis_arrays(mask_entries=False))
    @settings(max_examples=80, deadline=None)
    def test_bitwise_the_mean_var_oracle_and_input_unchanged(self, a):
        before = a.tobytes()
        assert layer_norm(a).tobytes() == layer_norm_mean_var(a).tobytes()
        assert a.tobytes() == before


def write_text(tmp_path, text: str):
    """``text`` in a file as it stands, line endings untranslated."""
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode("ascii"))
    return path


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces while ``fn()`` runs; an ``InputError`` is allowed."""
    tracemalloc.start()
    try:
        fn()
    except InputError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 3)) * np.array([1e-30, 1.0, 1e30])
        a[0, 0] = 0.1
        a[1, 1] = -0.0
        save_matrix(a, tmp_path / "m.txt")
        np.testing.assert_array_equal(a, load_matrix(tmp_path / "m.txt"))

    def test_header(self, tmp_path):
        save_matrix(np.zeros((2, 3)), tmp_path / "m.txt")
        assert (tmp_path / "m.txt").read_text().splitlines()[0] == "2 3"

    def test_empty_rows(self, tmp_path):
        save_matrix(np.empty((0, 5)), tmp_path / "m.txt")
        assert load_matrix(tmp_path / "m.txt").shape == (0, 5)

    def test_rejects_bad_header(self, tmp_path):
        with pytest.raises(InputError):
            load_matrix(write_text(tmp_path, "not a header\n"))

    def test_rejects_ragged_rows(self, tmp_path):
        with pytest.raises(InputError):
            load_matrix(write_text(tmp_path, "1 3\n1.0 2.0\n"))

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(InputError):
            load_matrix(write_text(tmp_path, "1 1\ninf\n"))

    def test_writing_non_finite_is_a_numeric_fault(self, tmp_path):
        # the writer only sees values the program computed: not the caller's fault
        with pytest.raises(FloatingPointError, match="serialized matrix"):
            save_matrix(np.array([[1.0, np.nan]]), tmp_path / "m.txt")

    @pytest.mark.parametrize("a, error, message", [
        (np.array([[1.0, np.nan]]), FloatingPointError, "serialized matrix"),
        (np.array([[np.inf], [1.0]]), FloatingPointError, "serialized matrix"),
        (np.ones(3), ConfigError, "ndim=1"),
        (np.ones((1, 2, 2)), ConfigError, "ndim=3"),
        (np.ones((2, 2), dtype=np.float32), ConfigError, "float32"),
    ], ids=["nan", "inf", "one-dimensional", "three-dimensional", "float32"])
    def test_a_refused_matrix_leaves_the_file_as_it_was(self, tmp_path, a, error, message):
        existing = tmp_path / "existing.txt"
        save_matrix(np.array([[1.5], [-2.0]]), existing)
        before = existing.read_bytes()
        with pytest.raises(error, match=message):
            save_matrix(a, existing)
        assert existing.read_bytes() == before
        with pytest.raises(error, match=message):
            save_matrix(a, tmp_path / "absent.txt")
        assert not (tmp_path / "absent.txt").exists()

    def test_non_ascii_file_names_the_path(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"1 1\n1.0\xff\n")
        with pytest.raises(InputError, match="m.txt is not ASCII"):
            load_matrix(path)

    @pytest.mark.parametrize("text, message", [
        ("", "empty matrix text"),
        ("\n  \n", "empty matrix text"),
        ("-1 3\n", "bad matrix shape -1x3"),
        ("2 -1\n\n\n", "bad matrix shape 2x-1"),
        ("2 1\n1.0\n", "expected 2 rows, found 1"),
        ("1 1\n1.0\n2.0\n", "expected 1 rows, found 2"),
        ("1 2\n1.0 abc\n", "row 0 has a non-numeric entry"),
    ])
    def test_rejects_empty_text_negative_shape_and_row_count(self, tmp_path, text, message):
        with pytest.raises(InputError, match=message):
            load_matrix(write_text(tmp_path, text))

    @pytest.mark.parametrize("text, expected", [
        pytest.param("2 2\r\n1.0 2.0\r\n3.0 4.0\r\n", [[1.0, 2.0], [3.0, 4.0]], id="crlf"),
        pytest.param("2 2\r1.0 2.0\r3.0 4.0\r", [[1.0, 2.0], [3.0, 4.0]], id="cr"),
        pytest.param("2 2\r\n1.0 2.0\r3.0 4.0\n", [[1.0, 2.0], [3.0, 4.0]], id="mixed endings"),
        pytest.param("2 2\r\r1.0 2.0\r \r3.0 4.0\r\r", [[1.0, 2.0], [3.0, 4.0]],
                     id="blank cr lines"),
        pytest.param("2 2\n1.0 2.0\f3.0 4.0\n", [[1.0, 2.0], [3.0, 4.0]],
                     id="form feed ends a row"),
        pytest.param("2 2\n1.0 2.0\v3.0 4.0\n", [[1.0, 2.0], [3.0, 4.0]],
                     id="vertical tab ends a row"),
        pytest.param("2 2\n1.0 2.0\x1c3.0 4.0\n", [[1.0, 2.0], [3.0, 4.0]],
                     id="file separator ends a row"),
        pytest.param("1 2\n1.0\x1f2.0\n", [[1.0, 2.0]], id="unit separator splits entries"),
        # two faults: two rows for one, and a short row; the bad row is named first
        pytest.param("1 2\n1.0\f2.0\n", "row 0 has 1 entries, expected 2",
                     id="form feed inside a row"),
        pytest.param("\n  \n\t\n2 2\n1.0 2.0\n3.0 4.0\n", [[1.0, 2.0], [3.0, 4.0]],
                     id="blank lines before the header"),
        pytest.param("  \t 1 2\n1.0 2.0\n", [[1.0, 2.0]], id="indented header"),
        pytest.param("2 2\n\n1.0 2.0\n   \n\t\n3.0 4.0\n", [[1.0, 2.0], [3.0, 4.0]],
                     id="blank lines between rows"),
        pytest.param("2 2\n1.0 2.0\n3.0 4.0\n\n\n  \n", [[1.0, 2.0], [3.0, 4.0]],
                     id="trailing blank lines"),
        pytest.param("1 2\n1.0 2.0", [[1.0, 2.0]], id="no final newline"),
        pytest.param("0 5\n\n\n", np.empty((0, 5)), id="0x5 and blank lines"),
        pytest.param("3 0\n\n\n\n", np.empty((3, 0)), id="3x0"),
        pytest.param("3 0\n \n\t\n\n", np.empty((3, 0)), id="3x0 whitespace rows"),
        pytest.param("3 0\n\n\n\n\n", "expected 3 rows, found 4", id="3x0 trailing blank line"),
        pytest.param("3 0\n\n\n", "expected 3 rows, found 2", id="3x0 no final newline"),
    ])
    def test_line_endings_and_blank_lines(self, tmp_path, text, expected):
        path = write_text(tmp_path, text)
        if isinstance(expected, str):
            with pytest.raises(InputError) as exc:
                load_matrix(path)
            assert str(exc.value) == expected
        else:
            expected = np.array(expected, dtype=np.float64)
            b = load_matrix(path)
            assert b.shape == expected.shape and b.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", [
        "1 1000000000000\n1.0\n",
        "100 20000\n" + "1.0\n" * 100,
    ], ids=["huge", "modest"])
    def test_the_header_shape_is_never_allocated(self, tmp_path, text):
        # 7.3 TiB and 16 MB claimed: only the rows read may be allocated
        path = write_text(tmp_path, text)
        with pytest.raises(InputError, match="row 0 has 1 entries"):
            load_matrix(path)
        assert traced_peak(lambda: load_matrix(path)) < 1 << 20

    def test_the_reader_holds_about_one_matrix_not_the_text(self, tmp_path):
        a = np.random.default_rng(6).normal(size=(20000, 32))
        save_matrix(a, tmp_path / "m.txt")
        # the whole text and its line list, held at once, read 6.3x
        assert traced_peak(lambda: load_matrix(tmp_path / "m.txt")) < 3 * a.nbytes

    @pytest.mark.parametrize("shape", [(4, 3), (0, 5), (3, 0)])
    def test_save_load_round_trip_bit_exact(self, tmp_path, shape):
        rng = np.random.default_rng(4)
        a = rng.normal(size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
        if a.size:
            a[0, 0] = -0.0
            a[-1, -1] = np.nextafter(1.0, 2.0)
        path = tmp_path / "m.txt"
        save_matrix(a, path)
        b = load_matrix(path)
        assert b.shape == shape and b.dtype == np.float64
        assert b.tobytes() == a.tobytes()

    @pytest.mark.parametrize("shape", [(3, 5), (4, 6), (0, 3)])
    def test_matches_per_value_oracle(self, tmp_path, shape):
        rng = np.random.default_rng(5)
        a = rng.normal(size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
        path = tmp_path / "m.txt"
        save_matrix(a, path)
        text = path.read_text()
        assert text == matrix_to_text_per_value(a)
        parsed = load_matrix(path)
        assert parsed.shape == shape
        assert parsed.tobytes() == matrix_from_text_per_value(text).tobytes() == a.tobytes()

    def test_edge_values_match_per_value_oracle(self, tmp_path):
        edges = [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-05, float(2**53 + 2),
                 1.7976931348623157e308, -1.7976931348623157e308]
        a = np.array([edges, edges[::-1], [-v for v in edges]])
        path = tmp_path / "m.txt"
        save_matrix(a, path)
        text = path.read_text()
        assert text == matrix_to_text_per_value(a)
        parsed = load_matrix(path)
        assert parsed.tobytes() == matrix_from_text_per_value(text).tobytes() == a.tobytes()
        # spellings the writer never emits parse as float() reads them
        odd = ("1 8\n.5 5. +2.5 1E-3 -0 2.4703282292062328e-324 1.7976931348623158e308 "
               "0.1000000000000000055511151231257827\n")
        assert load_matrix(write_text(tmp_path, odd)).tobytes() == \
            matrix_from_text_per_value(odd).tobytes()


def stream(rng: SeededRng, count: int) -> list[int]:
    """The next ``count`` outputs of the library's block stream, as Python ints."""
    return [v for z in rng._u64_blocks(count) for v in z.tolist()]


def sample_rows_per_value(rng: SeededRng, rows: int, population: int, count: int) -> np.ndarray:
    """``SeededRng.sample_indices`` one oracle row after another."""
    drawn = [sample_indices_per_value(rng, population, count) for _ in range(rows)]
    return np.array(drawn, dtype=np.int64).reshape(rows, count)


class TestSeededRng:
    def test_equal_seeds_equal_streams(self):
        assert stream(SeededRng(42), 10_000) == stream(SeededRng(42), 10_000)

    def test_distinct_seeds_differ(self):
        assert stream(SeededRng(1), 1) != stream(SeededRng(2), 1)

    def test_known_splitmix_values(self):
        # the published SplitMix64 outputs for seed 1234567, which pin the algorithm
        want = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                4593380528125082431, 16408922859458223821]
        assert stream(SeededRng(1234567), 5) == want
        rng = SeededRng(1234567)
        assert [next_u64(rng) for _ in range(5)] == want

    def test_uniform_range(self):
        rng = SeededRng(7)
        draws = [uniform(rng) for _ in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)

    def test_gaussian_moments(self):
        draws = SeededRng(11).normal_matrix(1, 20_000, std=1.0)
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.05

    def test_normal_matrix_deterministic(self):
        a = SeededRng(5).normal_matrix(3, 4, std=0.5)
        b = SeededRng(5).normal_matrix(3, 4, std=0.5)
        np.testing.assert_array_equal(a, b)

    # empty, one, odd and even counts, and draws up to, across and over two numpy blocks
    @pytest.mark.parametrize("n", [0, 1, 7, 10, 2**15 - 1, 2**15 + 1, 2 * 2**15 + 3])
    def test_block_draws_match_draw_at_a_time_oracles(self, n):
        lib, ref = SeededRng(2024), SeededRng(2024)
        calls = [
            # one draw leaves a Box-Muller spare for the next normal_matrix
            (lambda r: r.normal_matrix(1, 1, 0.5), lambda r: normal_matrix_per_value(r, 1, 1, 0.5)),
            (lambda r: r.normal_matrix(1, n, 2.0), lambda r: normal_matrix_per_value(r, 1, n, 2.0)),
            (lambda r: r.token_ids(n, 97), lambda r: token_ids_per_value(r, n, 97)),
            (uniform, uniform),
            (lambda r: r.normal_matrix(n, 3, 0.1), lambda r: normal_matrix_per_value(r, n, 3, 0.1)),
            (lambda r: r.token_ids(1, 1000), lambda r: (randint_below(r, 1000),)),
            # n sampled rows of one index each: rows*count is n
            (lambda r: r.sample_indices(n, 50, 1), lambda r: sample_rows_per_value(r, n, 50, 1)),
            (lambda r: r.token_ids(n, 2**61 - 1), lambda r: token_ids_per_value(r, n, 2**61 - 1)),
            (lambda r: r.normal_matrix(n, 1, 1.0), lambda r: normal_matrix_per_value(r, n, 1, 1.0)),
            (lambda r: r.sample_indices(1, 50, 20), lambda r: sample_rows_per_value(r, 1, 50, 20)),
            # count == population: whole permutations, one row and several
            (lambda r: r.sample_indices(1, n, n), lambda r: sample_rows_per_value(r, 1, n, n)),
            (lambda r: r.sample_indices(3, 5, 5), lambda r: sample_rows_per_value(r, 3, 5, 5)),
            (lambda r: r.normal_matrix(1, n + 1, 3.0), lambda r: normal_matrix_per_value(r, 1, n + 1, 3.0)),
        ]
        for i, (draw, oracle) in enumerate(calls):
            got, want = draw(lib), oracle(ref)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.shape == want.shape, i
                assert got.tobytes() == want.tobytes(), i
            else:
                assert got == want and type(got) is type(want), i
            if isinstance(want, tuple):
                assert all(type(v) is int for v in got), i
            assert (lib._state, lib._gauss_spare) == (ref._state, ref._gauss_spare), i

    def test_token_ids_rejects_empty_vocabulary(self):
        with pytest.raises(ConfigError):
            SeededRng(1).token_ids(3, 0)

    def test_sample_indices_distinct_and_in_range(self):
        idx = SeededRng(9).sample_indices(4, 100, 30)
        assert idx.shape == (4, 30) and idx.dtype == np.int64
        assert all(len(set(row)) == 30 for row in idx.tolist())
        assert idx.min() >= 0 and idx.max() < 100

    def test_sample_indices_full_population(self):
        idx = SeededRng(1).sample_indices(2, 5, 5)
        assert np.sort(idx, axis=1).tolist() == [[0, 1, 2, 3, 4]] * 2

    def test_sample_too_many(self):
        with pytest.raises(ConfigError):
            SeededRng(1).sample_indices(1, 3, 4)

    def test_fnv1a64_stable(self):
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("doc-1") == fnv1a64("doc-1")
        assert fnv1a64("doc-1") != fnv1a64("doc-2")
