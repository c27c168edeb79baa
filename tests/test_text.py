"""The byte-table formatter of floats against f"{v:.12g}", value by value."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replicagrid._text import _TEXT_ROWS, _g12_digits, _planar_table, _planar_text, _text_blocks


def _texts(values):
    """Each row of _g12_digits with its NULs dropped, as text."""
    table = _g12_digits(np.asarray(values, dtype=np.float64))
    assert table.dtype == np.uint8 and table.shape[0] == np.size(values)
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in table]


def _assert_matches_format(values):
    values = np.asarray(values, dtype=np.float64)
    expected = [f"{v:.12g}" for v in values.tolist()]
    got = _texts(values)
    bad = [(v, e, g) for v, e, g in zip(values.tolist(), expected, got) if e != g]
    assert not bad, bad[:10]


def test_random_bit_patterns():
    """Every float64 class: NaNs with any payload and sign, infinities,
    subnormals, zeros and normals of both signs and every exponent."""
    rng = np.random.default_rng(2)
    _assert_matches_format(rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64))


def test_random_values_in_the_fast_range():
    rng = np.random.default_rng(3)
    n = 200_000
    values = rng.random(n) * 10.0 ** rng.integers(-14, 36, n) * rng.choice([-1.0, 1.0], n)
    _assert_matches_format(values)
    # Short digit strings: trailing zeros dropped, and a bare '.' with them.
    for decimals in range(4):
        _assert_matches_format(np.round(values, decimals))
    _assert_matches_format(rng.integers(-10**13, 10**13, n).astype(np.float64))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-330, 310)])
    _assert_matches_format(np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), -powers,
    ]))


def test_form_boundaries():
    """Fixed form for exponents -4..11, scientific outside, on both sides of
    each edge and of its rounding carry."""
    edges = np.array([1e-4, 1e-5, 1e11, 1e12, 1e16, 1e22, 1e23, 1e33, 1e34, 1e-11, 1e-12])
    near = [np.nextafter(edges, 0), np.nextafter(edges, np.inf)]
    carries = edges * (1 - 4e-13), edges * (1 - 6e-13), edges * (1 - 5e-13)
    _assert_matches_format(np.concatenate([edges, *near, *carries, -edges]))
    _assert_matches_format([0.0001, 0.00009999999999995, 999999999999.5, 999999999999.4, 99999.99999995])


def test_exact_thirteenth_digit_ties():
    """An exact tie at the 13th digit rounds half to even on the binary value."""
    ties = [1234567890.125, 1234567890.375, 0.5, 2.5, 1e11 + 0.5, 123456789012.5, 123456789013.5]
    _assert_matches_format(ties + [-t for t in ties])


def test_zero_and_negative_zero():
    assert _texts([0.0, -0.0, 0.0]) == ["0", "-0", "0"]
    assert _g12_digits(np.array([])).shape == (0, 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), max_size=50))
def test_any_floats_match_format(values):
    _assert_matches_format(values)


@settings(max_examples=100, deadline=None)
@given(count=st.integers(0, 40), step=st.integers(1, 9))
def test_text_blocks_join_to_the_whole(count, step):
    """Blocks of any size, the last one short, join to the rows' text."""
    values = np.arange(count) * 1.25

    def rows(lo, hi):
        return _g12_digits(values[lo:hi])

    got = b"".join(_text_blocks(count, step, rows)).decode("ascii")
    assert got == "".join(f"{v:.12g}" for v in values.tolist())


@pytest.mark.parametrize("count", [1, _TEXT_ROWS, 2 * _TEXT_ROWS + 5])
def test_planar_text_is_the_rows_in_order(count):
    """A column-planar table's text, over one block, exactly one, and
    several with a short last one: each column's bytes in order, NULs
    dropped."""
    rng = np.random.default_rng(count)
    rows = rng.integers(0, 128, (count, 7), dtype=np.uint8)
    rows[rng.random(rows.shape) < 0.3] = 0
    table = _planar_table(7, count)
    table[...] = rows.T
    assert table.shape == (7, count)
    assert b"".join(_planar_text(table)) == rows.tobytes().replace(b"\0", b"")
