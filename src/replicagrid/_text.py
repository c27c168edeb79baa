"""Decimal text of whole arrays as NUL-padded byte tables.

Each value becomes one uint8 row; a caller lays the rows out with its own
separators and drops the NULs (``tobytes().translate(None, b"\\0")``), so
no Python string is built per value.  A caller whose text rows are short
and many (the placement renderers) lays them out column-planar instead:
one table row per byte position, one column per text row, so each field
is written as whole contiguous rows.  _planar_text transposes it back a
block of columns at a time.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator

import numpy as np

from .popularity import _frozen


@functools.cache
def _chunk_table() -> np.ndarray:
    """The ASCII digits of 0..9999, four bytes in one uint32 each, leading
    zeros as NUL bytes (0 is all NUL)."""
    values = np.arange(10_000, dtype=np.int16)[:, None]
    places = np.array([1000, 100, 10, 1], dtype=np.int16)
    chars = (values // places % 10 + ord("0")).astype(np.uint8)
    chars[values < places] = 0
    return _frozen(chars.view(np.uint32).ravel())


def _decimal_digits(values: np.ndarray) -> np.ndarray:
    """ASCII decimal digits of non-negative ints, one right-aligned uint8 row
    per value, NUL-padded on the left to the width of the largest.

    Four digits at a time: one lookup per chunk, and one division by 10^4
    per chunk below the leading one, which is below 10^4 when reached.  A
    chunk below the leading one keeps its leading zeros as '0' (OR 0x30).
    """
    table = _chunk_table()
    rest = np.asarray(values, dtype=np.int64)
    width = len(str(int(rest.max(initial=0))))
    chunks = -(-width // 4)
    words = np.empty((rest.size, chunks), dtype=np.uint32)
    for j in range(chunks - 1, 0, -1):
        # Floor division by a constant and a multiply-subtract take less
        # than half the time of np.divmod.
        high = rest // 10_000
        words[:, j] = table[rest - 10_000 * high] | (high > 0) * np.uint32(0x30303030)
        rest = high
    words[:, 0] = table[rest]
    digits = words.view(np.uint8)
    # The last digit is NUL only for 0.
    digits[:, -1] |= ord("0")
    return digits[:, 4 * chunks - width:]


# Rows per block of _text_blocks: a block's table and its bytes stay in
# cache, and no table of the whole output is ever held.
_TEXT_ROWS = 2**14


def _text_blocks(count: int, step: int, rows: Callable[[int, int], np.ndarray]) -> Iterator[bytes]:
    """The ASCII bytes of rows(lo, hi), a NUL-padded uint8 table of rows
    lo..hi - 1, for blocks of step rows over 0..count - 1, NULs dropped."""
    for lo in range(0, count, step):
        yield rows(lo, min(lo + step, count)).tobytes().translate(None, b"\0")


def _planar_table(depth: int, count: int) -> np.ndarray:
    """An uninitialised column-planar uint8 table for count text rows of
    depth bytes each: byte j of row i at [j, i].

    Its rows are a cache line longer than count: at a power-of-two stride
    a column's bytes share one cache set, and the transposing copy of
    _planar_text runs at half the speed or less.
    """
    return np.empty((depth, count + 64), dtype=np.uint8)[:, :count]


def _planar_text(table: np.ndarray) -> list[bytes]:
    """The ASCII bytes of a column-planar NUL-padded table's text rows, in
    order, NULs dropped: blocks of _TEXT_ROWS columns, each transposed to
    row-major bytes (_text_blocks), so no row-major copy of the whole table
    is held."""
    return list(_text_blocks(table.shape[1], _TEXT_ROWS, lambda lo, hi: table[:, lo:hi].T))


# The fast path of _g12_digits takes the decimal exponent X of |v| in
# _LOW_X.._HIGH_X, where 10^|11 - X| is an exact double.  Its tables start
# at X = _LOW_X - 1, a row no value passes: clipping X up to _LOW_X would
# scale a smaller |v| to too few digits, which can round to 10^11.
_LOW_X, _HIGH_X = -11, 33
_ZERO_KEY = 2 * 12 * (_HIGH_X - _LOW_X + 2)


@functools.cache
def _g12_tables():
    """The lookup tables of _g12_digits, built on first use.

    - scale: per X, the multiplier and the divisor taking |v| to 12 digits;
    - chunks: each 4-digit chunk as the uint64 bytes '.d.d.d.d', zeros kept
      (the '.' before digit j is where a decimal point after digit j - 1
      goes);
    - last: at p * 10^4 + c, twice the index among the 12 digits of the
      last nonzero digit of c at chunk position p (-2 for c = 0);
    - templates: one row of five uint64 words per (X, last kept digit L,
      sign), then '0' and '-0'.  Word 0 is the sign and any '0.00' prefix,
      right-aligned; words 1-3 are an AND mask over the three chunk words
      (0xFF on each kept digit and on the '.' kept, if any); word 4 is any
      'e±XX'.
    """
    scale = np.array([(0.0, 1.0)] + [
        (float(f"1e{11 - x}"), 1.0) if x <= 11 else (1.0, float(f"1e{x - 11}"))
        for x in range(_LOW_X, _HIGH_X + 1)
    ])

    # Each table is written through a uint8 view of its own memory, so
    # freezing it copies nothing.
    chunks = np.empty(10_000, dtype=np.uint64)
    chars = chunks.view(np.uint8).reshape(-1, 8)
    chars[:, 0::2] = ord(".")
    chars[:, 1::2] = _chunk_table().view(np.uint8).reshape(-1, 4)
    chars[:, 1::2] |= ord("0")

    c = np.arange(10_000, dtype=np.int16)
    low = np.int16(3) - (c % 10 == 0) - (c % 100 == 0) - (c % 1000 == 0)
    last = np.empty(30_000, dtype=np.int8)
    for p in range(3):
        last[p * 10_000:(p + 1) * 10_000] = np.where(c > 0, 2 * (4 * p + low), -2)

    # Template rows by (X index, L, sign): the digits up to L (and through
    # X in fixed form), the point before digit X + 1 (fixed) or 1
    # (scientific) when a digit follows it, the sign, '0.00' and 'e±XX'.
    xs = np.arange(_LOW_X - 1, _HIGH_X + 1)
    x = xs[:, None, None]
    fixed = (-4 <= x) & (x < 12)
    kept = np.arange(12)[:, None]
    kept = np.where(fixed & (x >= 0), np.maximum(kept, x), kept)[..., None]
    point = np.where(fixed, np.where(x >= 0, x + 1, 12), 1)[..., None]
    rows = np.zeros((xs.size, 12, 2, 40), dtype=np.uint8)
    rows[..., 9:32:2] = np.where(np.arange(12) <= kept, 0xFF, 0)
    rows[..., 10:32:2] = np.where((np.arange(1, 12) == point) & (point <= kept), 0xFF, 0)
    rows[:, :, 1, 7] = ord("-")
    for small in range(-4, 0):
        for sign in range(2):
            text = ("-" * sign + "0." + "0" * (-small - 1)).encode()
            rows[small - _LOW_X + 1, :, sign, 8 - len(text):8] = list(text)
    sci = (xs < -4) | (xs >= 12)
    e = xs[sci]
    suffix = [np.full(e.size, ord("e")), np.where(e < 0, ord("-"), ord("+")),
              ord("0") + abs(e) // 10, ord("0") + abs(e) % 10]
    rows[sci, :, :, 32:36] = np.stack(suffix, axis=1)[:, None, None]
    rows[0] = 0  # X = _LOW_X - 1: no value takes the fast path there
    templates = np.zeros((_ZERO_KEY + 2, 5), dtype=np.uint64)
    templates.view(np.uint8)[:_ZERO_KEY] = rows.reshape(_ZERO_KEY, 40)
    templates.view(np.uint8)[_ZERO_KEY, 7] = ord("0")
    templates.view(np.uint8)[_ZERO_KEY + 1, 6:8] = list(b"-0")
    tables = scale, chunks, last, templates
    for table in tables:
        table.setflags(write=False)
    return tuple(map(_frozen, tables))


def _g12_digits(values: np.ndarray) -> np.ndarray:
    """f"{v:.12g}" of each float64 v, one NUL-padded uint8 row per value; the
    columns before and after those that some row uses are left out.

    Fast path, for 0, -0 and finite v whose decimal exponent X (from
    log10) has 10^|11 - X| exact: the 12 digits are D = rint(|v| 10^(11-X))
    (a division by 10^(X-11) for X > 11).  D is taken only when it has 12
    digits and the scaled value lies more than 2^-10 from a half-integer;
    the scaling rounds once, by at most 2^-14 below 2^40, so D is then the
    correctly rounded digit string.  Each row is its (X, last kept digit,
    sign) template, ANDed with D's three 4-digit chunks.  Every other value
    (NaN, inf, near-ties, X out of range) is formatted on its own.
    """
    scale, chunks, last, templates = _g12_tables()
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.floor(np.log10(a))
        # fmax and fmin, unlike clip, send NaN to a table row too.
        x = np.fmin(np.fmax(x, _LOW_X - 1, out=x), _HIGH_X, out=x).astype(np.intp) - (_LOW_X - 1)
        factors = scale.take(x, axis=0)
        s = a * factors[:, 0] / factors[:, 1]
        d = np.rint(s)
        ok = (d >= 1e11) & (d < 1e12) & (np.abs(s - d) < 0.5 - 2.0**-10)
    # D's three 4-digit chunks, most significant first.
    chunk = np.empty((3, v.size), dtype=np.int64)
    chunk[2] = np.where(ok, d, 0.0)
    np.floor_divide(chunk[2], 10_000, out=chunk[1])
    np.floor_divide(chunk[1], 10_000, out=chunk[0])
    chunk[1:] -= 10_000 * chunk[:2]
    # 2 L, for L the index of D's last nonzero digit.
    tail = np.maximum.reduce(last.take(chunk + np.array([[0], [10_000], [20_000]])))
    key = np.where(ok, 24 * x + tail, _ZERO_KEY) + np.signbit(v)
    words = templates.take(key, axis=0)
    for j in range(3):
        words[:, j + 1] &= chunks.take(chunk[j])
    table = words.view(np.uint8)
    used = np.bitwise_or.reduce(templates[np.bincount(key).nonzero()[0]]).view(np.uint8)
    slow = np.where(ok, 0.0, a).nonzero()[0]
    if slow.size:
        # Right-aligned at the last digit's column, inside most spans.
        text = [f"{u:.12g}".encode().rjust(32, b"\0").ljust(40, b"\0") for u in v[slow].tolist()]
        table[slow] = np.frombuffer(b"".join(text), dtype=np.uint8).reshape(-1, 40)
        used = used | table[slow].any(axis=0)
    cols = used.nonzero()[0]
    return table[:, cols[0]:cols[-1] + 1] if cols.size else table[:, :0]
