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
  [1e-13, 1e22).
- Digits come from tables of the 1000 three-digit groups.  The text is laid
  out as byte fields, one (rows,) uint8 array per character position of a
  row: sign, ``0.`` and zeros before a small fraction, each digit and each
  place a decimal point can follow it, the exponent, the commas.  A byte is
  NUL where ``%`` prints no character, so stacking the fields into rows and
  dropping the NULs leaves the CSV text.  Fields no row of a call uses are
  left out.
- ``%.2f`` splits ``|x|`` into its whole part, which prints as ``%d``, and
  its fraction; both are exact in float64.  The two decimals are
  ``rint(fraction * 100)``, one rounding off the exact product by less than
  1e-14, read from the same digit tables; a rounding to 100 carries into the
  whole part.  Hundredths within 1e-9 of a midpoint (exact ties among them),
  non-finite values and magnitudes of 1e15 and above (the whole part must fit
  an int64; no plot coordinate comes near) are formatted by ``%``.
"""

from __future__ import annotations

import numpy as np

_ZERO, _DOT, _MINUS, _PLUS, _E = np.frombuffer(b"0.-+e", dtype=np.uint8)
# 10**0 .. 10**22, every one exact in float64; x * 10**k is x * _MUL[k + 14] / _DIV[k + 14].
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
_MUL, _DIV = np.r_[np.ones(14), _POW10], np.r_[_POW10[14:0:-1], np.ones(23)]
# 10**0 .. 10**19 as uint64: an integer below 10**k has at most k digits.
_POW10_U64 = np.cumprod(np.r_[1, np.full(19, 10)].astype(np.uint64))
_GROUPS = np.arange(1000)
# The ASCII digit at each place (hundreds, tens, ones) of the groups 000..999.
_PLACES = (np.stack([_GROUPS // 100, _GROUPS // 10 % 10, _GROUPS % 10]) + ord("0")).astype(np.uint8)
# Trailing zeros of each group; 000 has 3.
_TRAILING_ZEROS = ((_GROUPS % 10 == 0).astype(np.int8) + (_GROUPS % 100 == 0) + (_GROUPS % 1000 == 0)).astype(np.int8)
# Magnitudes whose exponent e keeps 8 - e within the exact powers of ten.
_RANGE_MIN, _RANGE_MAX = 1e-13, 1e22
# Closest a scaled value may come to a rounding midpoint and still be rounded here.
_MIDPOINT_MARGIN = 1e-6
_SHADOW = np.frombuffer(b"shadow", dtype=np.uint8)
# Magnitudes formatted here as %.2f are below _F2_MAX; hundredths closer than
# _F2_MARGIN to a rounding midpoint are left to %.
_F2_MAX, _F2_MARGIN = 1e15, 1e-9
_COMMA, _SPACE, _NEWLINE = np.frombuffer(b", \n", dtype=np.uint8)


def fmt(x: float) -> str:
    """``x`` as ``%.9g`` prints it: the text of every float in platekit's CSV and key=value output."""
    return "%.9g" % x


def _round(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rint(a * 10**(8 - e)), and where that product lies within _MIDPOINT_MARGIN
    of a rounding midpoint.  The product is one rounding: a multiply or a
    divide by an exact power of ten."""
    k = 22 - e  # 8 - e, offset into the tables
    p = a * _MUL.take(k) / _DIV.take(k)
    m = np.rint(p)
    return m, np.abs(p - m) > 0.5 - _MIDPOINT_MARGIN


def _text_fields(n: int, rows: np.ndarray, texts: list[bytes]) -> list[np.ndarray]:
    """Fields that spell ``texts[i]`` on row ``rows[i]`` and are NUL elsewhere."""
    block = np.zeros((max(map(len, texts)), n), dtype=np.uint8)
    for row, text in zip(rows.tolist(), texts):
        block[: len(text), row] = np.frombuffer(text, dtype=np.uint8)
    return list(block)


def _g9_fields(x: np.ndarray, hidden: np.ndarray) -> list[np.ndarray]:
    """Fields of ``"%.9g" % v`` for each float64 ``v`` of ``x``; NUL where ``hidden``."""
    a = np.abs(x)
    zero = a == 0.0
    in_range = (a >= _RANGE_MIN) & (a < _RANGE_MAX)
    a = np.where(in_range, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int32)
    m, midpoint = _round(a, e)
    # log10 can be one off next to a power of ten, and rounding can carry
    # into a tenth digit: rescale those values once.
    redo = np.flatnonzero((m < 1e8) | (m >= 1e9))
    if redo.size:
        e[redo] += np.where(m[redo] >= 1e9, 1, -1)
        m[redo], again = _round(a[redo], e[redo])
        midpoint[redo] |= again
    by_percent = np.flatnonzero((midpoint | ~(in_range | zero)) & ~hidden)
    blank = hidden.copy()
    blank[by_percent] = True
    m[zero] = 0.0
    e[blank] = 0

    high, low = np.divmod(m.astype(np.int32), 1000)
    groups = (*np.divmod(high, 1000), low)
    trailing = _TRAILING_ZEROS.take(groups[2]) + (groups[2] == 0) * (
        _TRAILING_ZEROS.take(groups[1]) + (groups[1] == 0) * _TRAILING_ZEROS.take(groups[0])
    )
    nd = np.maximum(9 - trailing, 1)  # significant digits printed; a zero prints one
    fixed = (e >= -4) & (e < 9)
    # The digit a decimal point would follow: the ones digit in fixed notation
    # (negative for a small fraction, whose point the "0." prefix holds), else the first.
    ones = np.where(fixed, e, 0)
    # Fixed notation prints every integer digit, zeros included.
    shown = np.maximum(nd, ones + 1)
    shown[blank] = 0
    point = np.where(nd > ones + 1, ones, -1)
    point[blank] = -1
    has_point = np.bincount(point + 5, minlength=14)[5:] > 0

    fields = []
    negative = np.signbit(x) & ~blank
    if negative.any():
        fields.append(negative * _MINUS)
    small = fixed & (e < 0)
    if small.any():
        fields += [small * _ZERO, small * _DOT]
        fields += [(small & (e <= -k)) * _ZERO for k in (2, 3, 4)]
    everywhere = int(shown.min(initial=9))  # digits shown on every row need no mask
    for j in range(int(shown.max(initial=0))):
        digit = _PLACES[j % 3].take(groups[j // 3])
        fields.append(digit if j < everywhere else digit * (shown > j))
        if j < 8 and has_point[j]:
            fields.append((point == j) * _DOT)
    sci = ~fixed
    if sci.any():
        exponent = np.abs(e)
        fields += [sci * _E, sci * np.where(e < 0, _MINUS, _PLUS)]
        fields += [sci * _PLACES[k].take(exponent) for k in (1, 2)]
    if by_percent.size:
        fields += _text_fields(x.size, by_percent, [fmt(v).encode("ascii") for v in x[by_percent].tolist()])
    return fields


def _f2_fields(x: np.ndarray, hidden: np.ndarray) -> list[np.ndarray]:
    """Fields of ``"%.2f" % v`` for each float64 ``v`` of ``x``; NUL where ``hidden``."""
    direct = np.abs(x) < _F2_MAX  # False for nan
    a = np.where(direct, np.abs(x), 0.0)
    whole = np.floor(a)
    p = (a - whole) * 100.0  # the fraction is exact, p one rounding off its hundredths
    cents = np.rint(p)
    by_percent = np.flatnonzero((~direct | (np.abs(p - cents) > 0.5 - _F2_MARGIN)) & ~hidden)
    blank = hidden.copy()
    blank[by_percent] = True
    carry = cents == 100.0
    whole[carry] += 1.0
    cents[carry] = 0.0
    cents = cents.astype(np.int32)
    negative = np.signbit(x) & ~blank
    fields = [negative * _MINUS] if negative.any() else []
    fields += _int_fields(whole.astype(np.int64), blank)
    shown = ~blank
    fields += [shown * _DOT, shown * _PLACES[1].take(cents), shown * _PLACES[2].take(cents)]
    if by_percent.size:
        fields += _text_fields(x.size, by_percent, [b"%.2f" % v for v in x[by_percent].tolist()])
    return fields


def _int_fields(v: np.ndarray, hidden: np.ndarray) -> list[np.ndarray]:
    """Fields of ``"%d" % i`` for each integer ``i`` of ``v``; NUL where ``hidden``."""
    negative = (v < 0) & ~hidden
    u = v.astype(np.uint64)
    u = np.where(v < 0, 0 - u, u)  # two's complement magnitude, 2**63 included
    nd = np.searchsorted(_POW10_U64[1:], u, side="right") + 1
    nd[hidden] = 0
    fields = [negative * _MINUS] if negative.any() else []
    width = int(nd.max(initial=0))
    groups = []
    for _ in range(0, width, 3):
        u, group = np.divmod(u, np.uint64(1000))
        groups.append(group.astype(np.int32))
    everywhere = int(nd.min(initial=20))
    for place in range(width - 1, -1, -1):
        digit = _PLACES[2 - place % 3].take(groups[place // 3])
        fields.append(digit if place < everywhere else digit * (nd > place))
    return fields


def format_rows(columns: list, shadow=None) -> bytearray:
    """CSV rows of equal-length 1-D numeric columns, with a newline after each.

    Integer columns print as ``%d`` and the others as ``%.9g``.  Where the
    boolean ``shadow`` array is set, the last column reads ``shadow``.
    """
    n = len(columns[0])
    shadow = np.zeros(n, dtype=bool) if shadow is None else np.asarray(shadow, dtype=bool)
    visible = np.zeros(n, dtype=bool)
    comma, newline = np.full(n, _COMMA), np.full(n, _NEWLINE)
    fields = []
    for k, column in enumerate(columns):
        hidden = shadow if k == len(columns) - 1 else visible
        if k:
            fields.append(comma)
        if np.issubdtype(column.dtype, np.integer):
            fields += _int_fields(column, hidden)
        else:
            fields += _g9_fields(np.asarray(column, dtype=np.float64), hidden)
    if shadow.any():
        fields += list(shadow * _SHADOW[:, None])
    fields.append(newline)
    return _join(fields, n)


def format_points(x, y, keep) -> list[bytes]:
    """``"%.2f,%.2f"`` of each point where the boolean ``keep`` is set, points
    joined by spaces, one bytes per maximal run of kept points."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    keep = np.asarray(keep, dtype=bool)
    hidden = ~keep
    # A space after a point whose successor is kept, a newline after a run's last point.
    follows = np.append(keep[1:], False)
    separator = keep * np.where(follows, _SPACE, _NEWLINE)
    fields = [*_f2_fields(x, hidden), keep * _COMMA, *_f2_fields(y, hidden), separator]
    return _join(fields, keep.size).split(b"\n")[:-1]


def _join(fields: list, n: int) -> bytearray:
    """The ``n`` rows of ``fields`` with their NULs dropped; empties ``fields``."""
    # Stacked straight into a bytearray, which drops its NULs without a copy of the rows.
    text = bytearray(n * len(fields))
    np.stack(fields, axis=1, out=np.frombuffer(text, dtype=np.uint8).reshape(n, len(fields)))
    fields.clear()
    return text.translate(None, b"\0")
