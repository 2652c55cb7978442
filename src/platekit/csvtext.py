"""Numeric text in numpy, byte for byte what printf ``%d``, ``%.9g`` and ``%.2f`` print.

The data contract of every CSV platekit writes is that each integer reads as
``"%d" % i`` and each other number as ``"%.9g" % x``; SVG polyline points
read as ``"%.2f,%.2f"``.  Formatting values one at a time in Python costs
about 0.3 us each, so ``format_rows`` (CSV) and ``format_points`` (SVG) build
the text with numpy instead:

- A float's nine significant digits are ``rint(|x| * 10**(8 - e))`` for its
  decimal exponent ``e``.  The power of ten is exact in float64 for
  ``|8 - e| <= 22``, so the scaling is one correctly rounded operation, off
  the exact product by less than 1.2e-7.  Where that product could lie on
  the other side of a rounding midpoint (within 1e-6 of ``.5``; exact ties,
  which ``%`` rounds half to even, are among them) the value is formatted by
  ``%`` on its own, as are non-finite values and magnitudes outside
  [1e-13, 1e22).  The nine digits split into three-digit groups in int32.
- A column of integers in 0..999 is one take of ``_INT_WORDS``, the value
  its own row.  Other integers below 1e9 in magnitude are exact in float64,
  where ``%.9g`` prints them as ``%d``: nine digits at most, fixed notation,
  no point.  A column that reaches 1e9 is formatted by ``%``.
- ``%.2f`` splits ``|x|`` into its whole part, which prints as ``%d``, and
  its fraction; both are exact in float64.  The two decimals are
  ``rint(fraction * 100)``, one rounding off the exact product by less than
  1e-14; a rounding to 100 carries into the whole part.  Hundredths within
  1e-9 of a midpoint (exact ties among them), non-finite values and
  magnitudes of 1e15 and above (the whole part must fit an int64; no plot
  coordinate comes near) are formatted by ``%``.
- A column whose values all have one bit pattern (a horizontal region's
  ``z_m``) is formatted once, by ``%``, unless the shadow hides some rows.

Rows are built from pieces.  A piece gives each row one little-endian uint32
word holding up to 4 bytes of its text, NUL where ``%`` prints nothing; its
width is the most bytes any row prints there.  Each word is one ``take``:

- ``_G9_WORDS`` (16,000): a ``%.9g`` group with the count of its digits
  shown and the digit a decimal point follows, if any.  ``_G9_OFFSETS`` maps
  a row's layout (its significant digits and the place of its ones digit) to
  each group's rows, ``_G9_WIDTHS`` to the bytes printed.
- ``_INT_WORDS`` (1,001): the ``%d`` of 0..999, and a blank row.
- Short texts by row: the sign with the ``0.`` and zeros before a small
  fraction (two words), the exponent ``e+dd``, a sign, the ``.dd`` of
  ``%.2f`` and the texts of values formatted by ``%``.
- Commas, the newline and constant columns are the same on every row: they
  are or'ed into the free high bytes of the piece before them, or written as
  constant words.

The layout is worked out first, column by column: each piece is its width,
its table and a row index into it, 1 or 2 bytes a row where the words would
take 4 (a column of small non-negative integers is its own index).
``_join`` then allocates the (rows, width + 3) byte buffer and writes the
pieces in row order, each through an unaligned '<u4' view at its byte
offset.  A word's bytes past its piece's width are NUL: the next piece
overwrites them, or they land in the 3 NUL slack bytes at the end of the
row.  Dropping the NULs (``bytearray.translate``) leaves the text.
"""

from __future__ import annotations

import numpy as np

# 10**0 .. 10**22, every one exact in float64; x * 10**k is x * _MUL[k + 14] / _DIV[k + 14].
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
_MUL, _DIV = np.r_[np.ones(14), _POW10], np.r_[_POW10[14:0:-1], np.ones(23)]
_GROUPS = np.arange(1000)
# The ASCII digits (hundreds, tens, ones) of the groups 000..999, one row per group.
_DIGITS = (np.stack([_GROUPS // 100, _GROUPS // 10 % 10, _GROUPS % 10], axis=1) + ord("0")).astype(np.uint8)
# Significant digits of a nine-digit number whose last group is g != 0:
# six before it, then the group up to its last non-zero digit.
_LAST_GROUP_DIGITS = 3 - ((_GROUPS % 10 == 0).astype(np.intp) + (_GROUPS % 100 == 0) + (_GROUPS == 0))
# Magnitudes whose exponent e keeps 8 - e within the exact powers of ten.
_RANGE_MIN, _RANGE_MAX = 1e-13, 1e22
# Closest a scaled value may come to a rounding midpoint and still be rounded here.
_MIDPOINT_MARGIN = 1e-6
# Magnitudes formatted here as %.2f are below _F2_MAX; hundredths closer than
# _F2_MARGIN to a rounding midpoint are left to %.
_F2_MAX, _F2_MARGIN = 1e15, 1e-9
# Rows format_chunks formats at once; bounds the text held at once.
_CHUNK_ROWS = 8192


def _text_table(texts: list) -> np.ndarray:
    """(words, len(texts)) uint32: row j holds bytes 4j..4j+3 of each text, NUL-padded."""
    size = max(4, -(-max(map(len, texts)) // 4) * 4)
    data = b"".join(text.ljust(size, b"\0") for text in texts)
    return np.frombuffer(data, dtype="<u4").reshape(len(texts), size // 4).T.copy()


def _g9_group_words() -> np.ndarray:
    """Row ((count * 4 + point) * 1000 + group): the first ``count`` digits of
    the group, with a decimal point after digit ``point`` (1..count; 0: none)."""
    table = np.zeros((4, 4, 1000, 4), dtype=np.uint8)
    for count in range(1, 4):
        for point in range(count + 1):
            chars = table[count, point]
            chars[:, :count] = _DIGITS[:, :count]
            if point:
                chars[:, point] = ord(".")
                chars[:, point + 1 : count + 1] = _DIGITS[:, point:count]
    return table.view("<u4").reshape(16000)


def _g9_layout_tables() -> tuple[np.ndarray, ...]:
    """Tables on a row's layout, nd * 13 + ao + 3 for its significant digits
    nd (0..9; 0 for a blank row) and the position ao (-3..9) of its ones digit,
    which scientific notation puts first: the offsets into _G9_WORDS and the
    bytes printed of its groups 0..2, and 2 * k for its ``0.`` prefix (see
    _PREFIX_WORDS).

    Fixed notation prints every integer digit, zeros included: max(nd, ao)
    digits, with a point after digit ao where digits follow it.  A small
    fraction (ao <= 0) has its point in the prefix."""
    nd, ao, g3 = np.arange(10)[:, None], np.arange(-3, 10), 3 * np.arange(3)[:, None, None]
    shown = np.maximum(nd, ao) * (nd > 0)
    place = np.where(nd > ao, ao - 1, -1) - g3
    point = np.where((place >= 0) & (place <= 2), place + 1, 0)
    count = np.clip(shown - g3, 0, 3)
    prefix = 2 * np.maximum(1 - ao, 0) * (nd > 0)
    return ((count * 4 + point) * 1000).astype(np.uint16), count + (point > 0), prefix.astype(np.uint8).reshape(130)


_G9_WORDS = _g9_group_words()
_G9_OFFSETS, _G9_WIDTHS, _PREFIX_ROWS = _g9_layout_tables()
_G9_ROW_OFFSETS = _G9_OFFSETS.reshape(3, 130)
# The same tables as lists [group][nd][ao + 3], which _g9_box reads with
# slices.  Each width is the running maximum over nd, which is the width
# itself (no group prints fewer bytes for more digits), so the row of a box's
# largest nd holds the widest entry of each of the box's columns.
_G9_BOX_WIDTHS = np.maximum.accumulate(_G9_WIDTHS, axis=1).tolist()
_G9_BOX_OFFSETS = _G9_OFFSETS.tolist()
# Layout of a nine-digit number whose last group is g, with ao 1: nd is
# six, then the group up to its last non-zero digit (group 000 is fixed up).
_LAST_GROUP_LAYOUT = (_LAST_GROUP_DIGITS + 6) * 13 + 4
# What a last group 000 adds to that layout: row g (g > 0), for a middle
# group g; row 1000 + g, for a first group g where the middle one is 000 too
# (a zero prints one digit).
_SHORT_LAYOUT = np.r_[_LAST_GROUP_DIGITS + 3 - 6, np.maximum(_LAST_GROUP_DIGITS, 1) - 6] * 13
# Row g < 1000: the %d of g (its three digits from the first non-zero one:
# dropping the word's first bytes is a shift); row 1000: blank.
_INT_WORDS = np.r_[_G9_WORDS[12000:13000] >> (16 - 8 * (_GROUPS >= 10) - 8 * (_GROUPS >= 100)).astype(np.uint32), 0]
# Row (negative + 2 * k): the sign, then for k > 0 the "0." and k - 1 zeros
# that %.9g prints before the digits of a fraction in [10**-k, 10**(1 - k)).
_PREFIX_WORDS = _text_table([b"-" * neg + (b"0." + b"0" * (k - 1) if k else b"") for k in range(5) for neg in (0, 1)])
# Row 0: fixed notation; row e + 14: the exponent e of -13..22.
_EXP_WORDS = _text_table([b""] + [b"e%+03d" % e for e in range(-13, 23)])[0]
_SIGN_WORDS = _text_table([b"", b"-"])[0]
# Row 0: blank; row c + 1: the hundredths c of %.2f.
_CENTS_WORDS = _text_table([b""] + [b".%02d" % c for c in range(100)])[0]
_COMMA_WORDS = _text_table([b"", b","])[0]
# Row 2 * kept + the next point kept: a point's separator.
_SEPARATOR_WORDS = _text_table([b"", b"", b"\n", b" "])[0]


def fmt(x: float) -> str:
    """``x`` as ``%.9g`` prints it: the text of every float in platekit's CSV and key=value output."""
    return "%.9g" % x


def _round(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rint(a * 10**(8 - e)), and where that product lies within _MIDPOINT_MARGIN
    of a rounding midpoint.  The product is one rounding: a multiply or a
    divide by an exact power of ten (the divide only where some e > 8)."""
    k = 22 - e  # 8 - e, offset into the tables
    p = a * _MUL.take(k)
    if k.min(initial=14) < 14:
        p /= _DIV.take(k)
    m = np.rint(p)
    p -= m
    return m, np.abs(p, out=p) > 0.5 - _MIDPOINT_MARGIN


def _pieces(table: np.ndarray, index: np.ndarray, width: int) -> list:
    """Pieces of ``width`` bytes in all, row i reading text ``index[i]`` of a _text_table."""
    return [(min(4, width - 4 * j), table[j], index, 0) for j in range(-(-width // 4))]


def _text_pieces(n: int, rows: np.ndarray, texts: list) -> list:
    """Pieces that spell ``texts[i]`` on row ``rows[i]`` and are NUL elsewhere."""
    index = np.zeros(n, dtype=np.min_scalar_type(len(texts)))
    index[rows] = np.arange(1, len(texts) + 1)
    return _pieces(_text_table([b""] + texts), index, max(map(len, texts)))


def _g9_box(nd_lo: int, nd_hi: int, ao_lo: int, ao_hi: int) -> list:
    """(group, width, offset) of each group that prints in the box of layouts
    nd_lo..nd_hi by ao_lo..ao_hi (ao + 3): the most bytes it prints there and
    its offset into _G9_WORDS, None unless the offset is the same across the box."""
    box = []
    for g, (widths, offsets) in enumerate(zip(_G9_BOX_WIDTHS, _G9_BOX_OFFSETS)):
        width = max(widths[nd_hi][ao_lo : ao_hi + 1])
        if width:
            first = [offsets[nd_lo][ao_lo]] * (ao_hi - ao_lo + 1)
            same = all(row[ao_lo : ao_hi + 1] == first for row in offsets[nd_lo : nd_hi + 1])
            box.append((g, width, first[0] if same else None))
    return box


def _g9_pieces(x: np.ndarray, hidden: np.ndarray | None) -> list:
    """Pieces of ``"%.9g" % v`` for each float64 ``v`` of ``x``; NUL where ``hidden`` (None: nowhere)."""
    a = np.abs(x)
    zero = outside = None
    if not (a.min(initial=_RANGE_MIN) >= _RANGE_MIN and a.max(initial=0.0) < _RANGE_MAX):  # nan fails both
        in_range = (a >= _RANGE_MIN) & (a < _RANGE_MAX)
        zero = a == 0.0
        outside = ~(in_range | zero)
        a[~in_range] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    m, midpoint = _round(a, e)
    # log10 can be one off next to a power of ten, and rounding can carry
    # into a tenth digit: rescale those values once.
    redo = ((m < 1e8) | (m >= 1e9)).nonzero()[0]
    if redo.size:
        e[redo] += 2 * (m[redo] >= 1e9) - 1
        m[redo], again = _round(a[redo], e[redo])
        midpoint[redo] |= again
    del a
    percent = midpoint if outside is None else midpoint | outside
    if hidden is not None:
        percent &= ~hidden
    by_percent = percent.nonzero()[0]
    any_blank = hidden is not None or by_percent.size > 0
    if any_blank:
        blank = np.zeros(x.size, dtype=bool) if hidden is None else hidden.copy()
        blank[by_percent] = True
        e[blank] = 0
    if zero is not None:
        m[zero] = 0.0

    # The three-digit groups of the nine-digit m, split in int32.
    rest = m.astype(np.int32)
    del m
    g0 = rest // 1_000_000
    rest -= g0 * 1_000_000
    g1 = rest // 1000
    rest -= g1 * 1000
    # The layout row (see _g9_layout_tables): significant digits from the last
    # non-zero group, a zero printing one; the ones digit follows e in fixed notation.
    layout = _LAST_GROUP_LAYOUT.take(rest)
    short = (rest == 0).nonzero()[0]
    if short.size:
        middle = g1[short]
        layout[short] += _SHORT_LAYOUT.take(np.where(middle > 0, middle, g0[short] + 1000))
    e_min, e_max = int(e.min(initial=0)), int(e.max(initial=0))
    fixed = (e >= -4) & (e < 9) if e_min < -4 or e_max >= 9 else None
    layout += e if fixed is None else e * fixed
    if any_blank:
        layout[blank] = 4
    groups = (g0.astype(np.uint16), g1.astype(np.uint16), rest.astype(np.uint16))
    del g0, g1, rest

    pieces = []
    negative = np.signbit(x)
    if any_blank:
        negative &= ~blank
    prefix = negative.view(np.uint8)
    width = int(prefix.any())
    if e_min < 0:  # a row may be a fraction below 1 in fixed notation
        rows = _PREFIX_ROWS.take(layout)
        k_max = int(rows.max(initial=0)) // 2
        if k_max:
            rows += negative
            prefix, width = rows, width + k_max + 1
    if width:
        pieces += _pieces(_PREFIX_WORDS, prefix, width)
    # The groups' widths and offsets over a box of layouts that holds every
    # row's (a wider box costs NUL bytes, never text): digits from the
    # layout's extremes, ones positions (ao + 3) from e's fixed range, and ao
    # 1 for scientific and blank rows.
    nd_lo, nd_hi = int(layout.min(initial=0)) // 13, int(layout.max(initial=0)) // 13
    ao_lo, ao_hi = max(e_min, -4) + 4, min(e_max, 8) + 4
    if fixed is not None:
        ao_lo, ao_hi = min(ao_lo, 4), max(ao_hi, 4)
    for g, width, offset in _g9_box(nd_lo, nd_hi, ao_lo, ao_hi):
        if offset is None:
            index = _G9_ROW_OFFSETS[g].take(layout)
            index += groups[g]
        else:
            index = groups[g] + offset
        pieces.append((width, _G9_WORDS, index, 0))
    if fixed is not None and not fixed.all():
        pieces.append((4, _EXP_WORDS, ((e + 14) * ~fixed).astype(np.uint8), 0))
    if by_percent.size:
        pieces += _text_pieces(x.size, by_percent, [fmt(v).encode("ascii") for v in x[by_percent].tolist()])
    return pieces


def _f2_pieces(x: np.ndarray, hidden: np.ndarray) -> list:
    """Pieces of ``"%.2f" % v`` for each float64 ``v`` of ``x``; NUL where ``hidden``."""
    direct = np.abs(x) < _F2_MAX  # False for nan
    a = np.where(direct, np.abs(x), 0.0)
    whole = np.floor(a)
    p = (a - whole) * 100.0  # the fraction is exact, p one rounding off its hundredths
    cents = np.rint(p)
    by_percent = ((~direct | (np.abs(p - cents) > 0.5 - _F2_MARGIN)) & ~hidden).nonzero()[0]
    blank = hidden.copy()
    blank[by_percent] = True
    carry = cents == 100.0
    whole[carry] += 1.0
    cents[carry] = 0.0
    negative = np.signbit(x) & ~blank
    pieces = [(1, _SIGN_WORDS, negative, 0)] if negative.any() else []
    pieces += _int_pieces(whole.astype(np.int64), blank)
    pieces.append((3, _CENTS_WORDS, ((cents + 1.0) * ~blank).astype(np.uint8), 0))
    if by_percent.size:
        pieces += _text_pieces(x.size, by_percent, [b"%.2f" % v for v in x[by_percent].tolist()])
    return pieces


def _int_pieces(v: np.ndarray, hidden: np.ndarray | None) -> list:
    """Pieces of ``"%d" % i`` for each integer ``i`` of ``v``; NUL where ``hidden`` (None: nowhere)."""
    lo, hi = int(v.min(initial=0)), int(v.max(initial=0))
    if lo >= 0 and hi < 1000:
        # One take: the value is the row of _INT_WORDS, 1000 where hidden.
        u = v if hidden is None or not hidden.any() else np.where(hidden, 1000, v)
        return [(len(str(hi)), _INT_WORDS, u, 0)]
    if -10**9 < lo and hi < 10**9:
        # Nine digits at most, exact in float64, where %.9g prints them as %d.
        return _g9_pieces(v.astype(np.float64), hidden)
    rows = np.arange(len(v)) if hidden is None else (~hidden).nonzero()[0]
    return _text_pieces(len(v), rows, [b"%d" % i for i in v[rows].tolist()]) if rows.size else []


def _add_text(pieces: list, text: bytes) -> None:
    """Append ``text``, the same on every row, to ``pieces``: what fits into
    the free bytes of the last piece's words as their tail, the rest as
    constant words."""
    if pieces and pieces[-1][1] is not None:
        width, table, index, tail = pieces[-1]
        fits = text[: 4 - width]
        pieces[-1] = (width + len(fits), table, index, tail | int.from_bytes(fits, "little") << 8 * width)
        text = text[len(fits) :]
    for j in range(0, len(text), 4):
        word = text[j : j + 4]
        pieces.append((len(word), None, None, int.from_bytes(word, "little")))


def format_rows(columns: list, shadow=None) -> bytearray:
    """CSV rows of equal-length 1-D numeric columns, with a newline after each.

    Integer columns print as ``%d`` and the others as ``%.9g``.  Where the
    boolean ``shadow`` array is set, the last column reads ``shadow``.
    """
    n = len(columns[0])
    if shadow is not None:
        shadow = np.asarray(shadow, dtype=bool)
        if not shadow.any():
            shadow = None
    pieces, text = [], b""  # text: constant bytes not yet laid out
    for k, column in enumerate(columns):
        # A column's kernel gets no mask where every row is shown.
        hidden = shadow if k == len(columns) - 1 else None
        if k:
            text += b","
        if column.dtype.kind in "iu":
            kernel, spec = _int_pieces, b"%d"
        else:
            kernel, spec, column = _g9_pieces, b"%.9g", np.asarray(column, dtype=np.float64)
        if hidden is None and _is_constant(column):
            text += spec % column[0]
            continue
        _add_text(pieces, text)
        text = b""
        pieces += kernel(column, hidden)
    if shadow is not None:
        _add_text(pieces, text)
        pieces += _pieces(_text_table([b"", b"shadow"]), shadow, 6)
        text = b""
    _add_text(pieces, text + b"\n")
    return _join(pieces, n)


def format_chunks(columns: list, shadow=None):
    """format_rows of the columns (and ``shadow``) _CHUNK_ROWS rows at a time, in order."""
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        yield format_rows([c[rows] for c in columns], None if shadow is None else shadow[rows])


def _is_constant(column: np.ndarray) -> bool:
    """Whether the column has more than one value, every one with the bit pattern of the first."""
    bits = column.view(f"u{column.itemsize}")
    return len(bits) > 1 and bits[-1] == bits[0] and bool((bits == bits[0]).all())


def format_points(x, y, keep) -> list[bytes]:
    """``"%.2f,%.2f"`` of each point where the boolean ``keep`` is set, points
    joined by spaces, one bytes per maximal run of kept points."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    keep = np.asarray(keep, dtype=bool)
    hidden = ~keep
    # A space after a point whose successor is kept, a newline after a run's last point.
    separator = 2 * keep.view(np.uint8)
    separator[:-1] += keep[1:]
    pieces = [*_f2_pieces(x, hidden), (1, _COMMA_WORDS, keep, 0), *_f2_pieces(y, hidden),
              (1, _SEPARATOR_WORDS, separator, 0)]
    return _join(pieces, keep.size).split(b"\n")[:-1]


def _join(pieces: list, n: int) -> bytearray:
    """The ``n`` rows of ``pieces`` with their NULs dropped; empties ``pieces``.

    A piece is (width, table, index, tail): its words are ``table.take(index)``
    with the constant ``tail`` or'ed in, or ``tail`` alone where ``table`` is None."""
    stride = sum(piece[0] for piece in pieces) + 3
    text = bytearray(n * stride)
    offset = 0
    for width, table, index, tail in pieces:
        if table is None:
            words = np.full(n, tail, dtype=np.uint32)
        else:
            words = table.take(index)
            if tail:
                words |= tail
        if n:
            np.ndarray(n, dtype="<u4", buffer=text, offset=offset, strides=(stride,))[...] = words
        offset += width
    pieces.clear()
    return text.translate(None, b"\0")
