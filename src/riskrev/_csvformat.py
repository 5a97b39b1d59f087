"""The body of a CSV table: every cell is ``'%.15g' % x`` of its double, comma-joined.

Each distinct float64 bit pattern of the table is formatted once, in
numpy, in blocks of ``_BLOCK`` values.  For 1e-8 <= |x| < 1e15 the 15
significant digits come out exact:

- k = 14 - floor(log10 |x|) lies in [0, 22], so 10^k is an exact double;
- Dekker's TwoProduct (Veltkamp split, no FMA) gives |x| * 10^k = p + err
  exactly;
- one +-1 step fixes k where log10 misjudged the decade;
- the sign of p - floor(p) - 1/2, or of err where that is zero, rounds half
  to even exactly: p - floor(p) - 1/2 is a multiple of the ulp of p, and
  |err| is at most half of it;
- a result of 10^15 carries to 10^14 and raises the exponent.

The digits are then laid out as ``%g`` does: fixed form for decimal
exponents -4 <= X < 15, exponent form otherwise, trailing zeros stripped.
Zeros print as ``0`` and ``-0``.  Every other value (non-finite, outside
that range, or with a k that one step does not fix) goes to CPython's
``%.15g`` through one ``%`` call.
"""

import numpy as np

# distinct values formatted at a time, so the temporaries stay in cache; at
# 2^14 each block's fresh temporaries took about 1,400 page faults and twice the time
_BLOCK = 1 << 13
# the widest cell, "-4.94065645841247e-324", and its comma
_WIDTH = 23

_POW10 = np.array([10**k for k in range(23)], dtype=float)
_SPLIT = 2.0**27 + 1.0


def _halves(a: np.ndarray):
    """Veltkamp's split of ``a`` into a high and a low part of 26 bits each."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _halves(_POW10)

# "0000" .. "9999" as one uint32 each, so np.take yields four ASCII bytes per group
_DIGIT = np.arange(48, 58, dtype=np.uint8)
_GROUPS = np.stack(np.meshgrid(_DIGIT, _DIGIT, _DIGIT, _DIGIT, indexing="ij"), axis=-1).view(np.uint32).ravel()

# a value's source row: "0" and its 15 digits, then these constant bytes
_CONSTANTS = np.frombuffer(b"-.e+,0123456789\0", dtype=np.uint32)
_MINUS, _DOT, _E, _PLUS, _COMMA, _ZERO, _NUL = np.array([16, 17, 18, 19, 20, 21, 31], dtype=np.int8)


def _layouts():
    """Each cell's source index per output byte, and its length with the comma; NUL pads the cell.

    Row (negative * 24 + X + 8) * 15 + nd - 1 lays out a value with sign
    ``negative``, decimal exponent X and nd significant digits; digit i is
    source byte 1 + i.  A negative cell is "-" and then the positive one.
    Every index fits in int8, which keeps the temporaries small.
    """
    exponents, digits = np.arange(-8, 16, dtype=np.int8), np.arange(1, 16, dtype=np.int8)
    X, nd = (a.reshape(-1, 1) for a in np.meshgrid(exponents, digits, indexing="ij"))
    j = np.arange(_WIDTH - 1, dtype=np.int8)

    def digit(i):
        return 1 + np.clip(i, 0, 14)

    # fixed, X >= 0: the first X + 1 digits, then a point and the rest if any
    whole = np.where(j <= X, digit(j), np.where(j == X + 1, _DOT, digit(j - 1)))
    whole_len = np.where(nd > X + 1, nd + 1, X + 1)
    # fixed, X < 0: "0." and -X - 1 zeros before the digits
    zeros = -X - 1
    small = np.where(j == 1, _DOT, np.where(j < 2 + zeros, _ZERO, digit(j - 2 - zeros)))
    small_len = 2 + zeros + nd
    # exponent form: d[.ddd]e-XX or e+XX
    mantissa = np.where(nd > 1, nd + 1, 1)
    exponent = np.select(
        [j == mantissa, j == mantissa + 1, j == mantissa + 2],
        [_E, np.where(X < 0, _MINUS, _PLUS), _ZERO + abs(X) // 10],
        _ZERO + abs(X) % 10,
    )
    power = np.where(j < mantissa, np.where(j == 1, _DOT, digit(j - (j > 1))), exponent)
    power_len = mantissa + 4
    fixed = (X >= -4) & (X < 15)
    source = np.where(fixed, np.where(X >= 0, whole, small), power)
    length = np.where(fixed, np.where(X >= 0, whole_len, small_len), power_len)
    source = np.where(j < length, source, np.where(j == length, _COMMA, _NUL))
    positive = np.hstack([source, np.full((len(source), 1), _NUL)])
    negative = np.hstack([np.full((len(source), 1), _MINUS), source])
    return np.vstack([positive, negative]).astype(np.int32), np.concatenate([length, length + 1]).ravel() + 1


_LAYOUT, _LENGTH = _layouts()


def _format_block(values: np.ndarray, cells: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Write the cells of the fast ``values`` into ``cells`` and ``lengths``; return where a value is not fast."""
    a = np.abs(values)
    zero = a == 0
    fast = (a >= 1e-8) & (a < 1e15)
    a[~fast] = 1.0
    k = np.clip(14 - np.floor(np.log10(a)).astype(np.intp), 0, 22)
    rough = a * _POW10[k]
    k += (rough < 1e14).view(np.int8)
    k -= (rough > 1e15).view(np.int8)
    fast &= (k >= 0) & (k <= 22)
    np.clip(k, 0, 22, out=k)
    # TwoProduct: a * 10^k = p + err exactly
    p = a * _POW10[k]
    a_high, a_low = _halves(a)
    high, low = _POW10_HIGH[k], _POW10_LOW[k]
    err = ((a_high * high - p) + a_high * low + a_low * high) + a_low * low
    fast &= (p >= 1e14) & (p <= 1e15)
    floor = np.floor(p)
    half = (p - floor) - 0.5
    n = floor.astype(np.int64)
    n += (half > 0) | ((half == 0) & ((err > 0) | ((err == 0) & ((n & 1) == 1))))
    carry = n == 10**15
    n[carry | ~fast] = 10**14
    # a zero keeps k = 14 from a = 1, so X = 0, and becomes the one digit "0"
    n[zero] = 0
    X = 14 - k + carry
    # four groups of four digits, the first padded with a zero
    head, tail = np.divmod(n, 10**8)
    groups = np.stack([*np.divmod(head, 10**4), *np.divmod(tail, 10**4)])
    source = np.empty((len(values), 8), dtype=np.uint32)
    source[:, :4] = np.take(_GROUPS, groups).T
    source[:, 4:] = _CONSTANTS
    source = source.view(np.uint8)
    # significant digits: 15 less the trailing zeros
    nd = 15 - np.argmax(source[:, 15:0:-1] != 48, axis=1)
    nd[zero] = 1
    row = (np.signbit(values) * 24 + np.clip(X, -8, 15) + 8) * 15 + nd - 1
    index = np.take(_LAYOUT, row, axis=0)
    index += np.arange(0, 32 * len(values), 32, dtype=np.int32)[:, None]
    np.take(source.ravel(), index, out=cells)
    lengths[...] = _LENGTH[row]
    return ~(fast | zero)


def _fallback(values: np.ndarray):
    """``%.15g`` cells of ``values`` with their commas, NUL-padded to ``_WIDTH`` bytes, and their lengths."""
    text = ("%.15g, " * len(values)) % tuple(values.tolist())
    cells = np.array(text.split(), dtype=f"S{_WIDTH}").view(np.uint8).reshape(len(values), _WIDTH)
    return cells, np.count_nonzero(cells, axis=1)


def _table_cells(table: np.ndarray):
    """The cells of the table's distinct values, their lengths, each table cell's distinct value, and which took ``%``."""
    bits, inverse = np.unique(np.ascontiguousarray(table, dtype=float).ravel().view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    cells = np.empty((len(values), _WIDTH), dtype=np.uint8)
    lengths = np.empty(len(values), dtype=np.intp)
    slow = np.empty(len(values), dtype=bool)
    for start in range(0, len(values), _BLOCK):
        block = slice(start, start + _BLOCK)
        slow[block] = _format_block(values[block], cells[block], lengths[block])
    cells[slow], lengths[slow] = _fallback(values[slow])
    return cells, lengths, inverse, slow


def _fallback_cells(table: np.ndarray) -> int:
    """How many cells of ``table`` the renderer hands to CPython's ``%.15g``."""
    _, _, inverse, slow = _table_cells(table)
    return int(np.count_nonzero(slow[inverse]))


def csv_body(table: np.ndarray) -> str:
    """The rows of the 2-D float ``table``, each cell ``'%.15g' % x``, joined by "," and ended by a newline."""
    rows, columns = table.shape
    if table.size == 0:
        return "\n" * rows
    cells, lengths, inverse, _ = _table_cells(table)
    padded = np.take(cells[:, : lengths.max()], inverse, axis=0)
    text = padded[padded != 0]
    # each row's last comma becomes its newline
    text[np.cumsum(lengths[inverse])[columns - 1 :: columns] - 1] = ord("\n")
    return str(text, "ascii")
