"""Bulk float text: whole arrays written exactly as per-value ``'%.17g' % v``
and ``'%.2f' % v`` would write them, byte for byte.

Rounding is exact.  Dekker's error-free product gives
``hi + lo == |v| * 10**s`` with no rounding error (``10**s`` is exact in
binary64 for ``s <= 22``), and ``hi + lo`` is rounded half to even to an
int64 holding the printed digits, as ``%`` rounds the exact binary value.
``%.17g`` takes ``s = 16 - e10`` on ``1e-4 <= |v| < 1e16``; ``%.2f`` takes
``s = 2`` on ``0 <= v < 99999.995``, and needs the exact product only near
a tie: ``hi = fl(100 v)`` is below ``1e7``, so ``|lo| <= ulp(hi)/2 <=
2**-30``, and ``rint(hi)`` is already correct unless ``hi`` lies within
``2**-30`` of a half-integer.

Each value becomes one fixed-width row of bytes, its text followed by a
separator slot, and a keep mask taken from a lookup table by the text's
length selects the bytes to write.  The digits come from lookup tables;
``%.17g`` places the decimal point with one fixed layout per (exponent,
sign) group, moving whole rows through an ``np.void`` view, and drops
trailing zeros through the lengths.

Every other value keeps the per-value ``%``, its one route: for ``%.17g``
zeros, ``-0.0``, nan, infinities and ``|v|`` below ``1e-4`` or from
``1e16`` on (exponent notation); for ``%.2f`` anything negative (``-0.0``
included), nan, or from ``99999.995`` on (six integer digits or more).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np
from numpy.typing import ArrayLike

__all__ = ["rows"]

CHUNK_VALUES = 8192  # values formatted at a time: bounds the temporaries

# Row q of _ASCII4 holds the four decimal digits of q as ASCII; _DIGITS4[q]
# is that row as one uint32, and _ZEROS4[q] counts its trailing zeros (4
# for q = 0).
# int16 and uint8 arithmetic keep the import's memory high-water mark low.
_ASCII4 = (np.arange(10**4, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0"))
_ASCII4 = _ASCII4.astype(np.uint8)
_DIGITS4 = _ASCII4.view(np.uint32).ravel()
_ZEROS4 = np.cumprod(_ASCII4[:, ::-1] == ord("0"), axis=1, dtype=np.uint8).sum(axis=1, dtype=np.int64)

_POW10 = np.array([float(10**k) for k in range(23)])  # each one exact


def _rows_of(a: np.ndarray) -> np.ndarray:
    """The rows of a 2-d array with contiguous, nonempty rows, viewed as one
    ``np.void`` item each: whole rows then move as single items, not byte
    by byte."""
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize)))[:, 0]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a == hi + lo`` with each half of 26 bits or fewer."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a: np.ndarray, s: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's product: ``hi + lo == a * 10**s`` exactly, ``hi`` rounded."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[s], _POW10_LO[s]
    hi = a * _POW10[s]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _digits17(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(n, e10)``: ``1e-4 <= a < 1e16`` rounded to 17 digits
    ``10**16 <= n < 10**17``, and its decimal exponent, from a guess ``e``.

    A guess one too high gives ``n < 10**16``; one too low, or a value
    that rounds up to the next power of ten, gives ``n >= 10**17``.  Either
    way the exponent moves by one and the digits are recomputed.

    ``hi + lo`` rounds exactly to ``hi + rint(lo)`` from ``2**53`` on,
    where ``hi`` is an even integer and ``lo`` alone keeps the parity.  A
    smaller ``hi`` gives ``n < 10**16``, whatever its rounding, and is
    redone.
    """
    hi, lo = _scaled(a, 16 - e)
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    redo = np.flatnonzero((n - 10**16).view(np.uint64) >= 9 * 10**16)  # n outside [1e16, 1e17)
    if redo.size:
        n[redo], e[redo] = _digits17(a[redo], e[redo] + np.where(n[redo] < 10**16, -1, 1))
    return n, e


def _keep_table(text: int, spans: Sequence[tuple[int, int]]) -> np.ndarray:
    """Keep masks of width ``text + 1``: row ``L`` keeps the text bytes
    ``spans[L]`` and the separator slot; the last row keeps nothing, for
    values that take the per-value ``%``."""
    table = np.zeros((len(spans) + 1, text + 1), bool)
    for row, (start, stop) in zip(table, spans):
        row[start:stop] = row[text] = True
    return table


# _g17 writes the 17 digits of n as ASCII at bytes 3 to 19 of a 24-byte row
# ("000" pads the leading digit), then moves them into the text "[-]ddd.ddd"
# or "[-]0.000ddd" of their (e10, sign) group.  The length then drops
# trailing zeros and a bare ".".  Byte 23 of a row is the separator slot.
_G17_TEXT = 23  # "-0.000" and 17 digits
_G17_E10 = range(-4, 17)
_G17_KEEP = _keep_table(_G17_TEXT, [(0, length) for length in range(_G17_TEXT + 1)])


def _g17_lay_out(digits: np.ndarray, group: int) -> np.ndarray:
    """The rows of ``digits`` in the text layout of one group.

    The digits after the decimal point (all 17 below ``1``) keep their
    order, so one byte-shifted copy of the whole buffer places them in
    every row; the bytes it carries across row ends all lie past the
    text.  Only the sign, the leading ``0.000`` or the integer digits and
    the point are then written by column.
    """
    e, neg = divmod(group, 2)
    e += _G17_E10.start
    tail = neg + 1 - e if e < 0 else neg + e + 2  # where the tail digits go
    shift = tail - (3 if e < 0 else e + 4)
    out = np.empty_like(digits)
    src, dst = digits.reshape(-1), out.reshape(-1)
    if shift >= 0:
        dst[shift:] = src[: src.size - shift]
    else:
        dst[:shift] = src[-shift:]
    if e < 0:
        prefix = b"-" * neg + b"0." + b"0" * (-e - 1)
        out[:, :tail].view(np.dtype((np.void, tail)))[...] = np.void(prefix)
    else:
        out[:, neg : neg + e + 1] = digits[:, 3 : e + 4]
        out[:, neg + e + 1] = ord(".")
        out[:, :neg] = ord("-")
    return out


def _g17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.abs(v)
    n, e = _digits17(a, np.floor(np.log10(a)).astype(np.int64))
    # n in base 10**4, from the leading digit down, through two int32 halves
    top = n // 10**8
    low = (n - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    mid, q3 = top // 10**4, low // 10**4
    q0 = mid // 10**4
    quads = [q0, mid - q0 * 10**4, top - mid * 10**4, q3, low - q3 * 10**4]
    words = np.empty((v.size, 6), np.uint32)
    for j, q in enumerate(quads):
        words[:, j] = _DIGITS4.take(q)  # take: [] is slow with an int32 index
    digits = words.view(np.uint8)
    zeros = _ZEROS4.take(quads[4])
    run = quads[4] == 0
    for q in quads[3:0:-1]:  # the leading digit is never 0
        if not run.any():
            break
        zeros += run * _ZEROS4.take(q)
        run &= q == 0
    neg = np.signbit(v)
    group = (e - _G17_E10.start) * 2 + neg
    # The largest group is laid out over every row; the rest move as rows.
    counts = np.bincount(group)
    main = counts.argmax()
    buf = _g17_lay_out(digits, main)
    if counts[main] < v.size:
        src, dst = _rows_of(digits), _rows_of(buf)
        for g in np.flatnonzero(counts):
            if g != main:
                at = np.flatnonzero(group == g)
                dst[at] = _rows_of(_g17_lay_out(src[at].view(np.uint8).reshape(-1, 24), g))
    frac = np.maximum(16 - zeros - e, 0)  # digits printed after the point
    return buf, neg + np.maximum(e, 0) + 1 + frac + (frac > 0)


# _f2 writes n = round(100 v) < 10**7 as the text "ddddd.dd" in one row:
# the four digits of n // 1000, then the four bytes "d.dd" of n % 1000,
# each as one uint32.  The text starts at the first integer digit that is
# not a leading zero, so its length follows from n // 1000.
_F2_TEXT = 8
_F2_ROW = np.dtype({"names": ["int", "frac"], "formats": [np.uint32, np.uint32], "offsets": [0, 4], "itemsize": 9})
_F2_FRAC = np.insert(_ASCII4[:1000, 1:], 1, ord("."), axis=1).view(np.uint32).ravel()
_F2_LENGTHS = 4 + np.searchsorted(10 ** np.arange(4), np.arange(10**4), side="right")
_F2_KEEP = _keep_table(_F2_TEXT, [(_F2_TEXT - length, _F2_TEXT) for length in range(_F2_TEXT + 1)])
_F2_TIE_MARGIN = 2.0**-30  # ulp(1e7) / 2 bounds |lo|


def _round2(v: np.ndarray) -> np.ndarray:
    """``100 v`` rounded half to even, exactly, as int64, for ``0 <= v < 1e5``.

    Only a ``hi`` within the tie margin of a half-integer needs ``lo``, and
    then only when it is exactly halfway: below ``2**52``, ``|lo| < 0.5``.
    """
    hi = v * _POW10[2]
    r = np.rint(hi)
    n = r.astype(np.int64)
    near = np.flatnonzero(np.abs(hi - r) >= 0.5 - _F2_TIE_MARGIN)  # |hi - r| <= 0.5
    if near.size:
        d = hi[near] - r[near]
        lo = _scaled(v[near], 2)[1]
        n[near] += (d == 0.5) & (lo > 0)
        n[near] -= (d == -0.5) & (lo < 0)
    return n


def _f2(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = _round2(v)
    top = n // 1000
    row = np.empty(v.size, _F2_ROW)
    row["int"] = _DIGITS4[top]
    row["frac"] = _F2_FRAC[n - top * 1000]
    return row.view(np.uint8).reshape(v.size, _F2_TEXT + 1), _F2_LENGTHS[top]


class _Format(NamedTuple):
    in_range: object  # values -> bool mask of the values that bulk formats
    bulk: object  # values -> (rows of text and separator slot, text lengths)
    keep: np.ndarray  # keep masks by text length; the last row keeps nothing


_FORMATS = {
    "%.17g": _Format(lambda v: (np.abs(v) >= 1e-4) & (np.abs(v) < 1e16), _g17, _G17_KEEP),
    "%.2f": _Format(lambda v: ~np.signbit(v) & (v < 99999.995), _f2, _F2_KEEP),
}


def _formatted(v: np.ndarray, fmt: _Format) -> tuple[np.ndarray, np.ndarray]:
    """``(buf, length)``: each value's bulk row and text length, the length
    set to the keep-nothing row for the values that take the per-value
    ``%``."""
    fast = fmt.in_range(v)
    buf, length = fmt.bulk(np.where(fast, v, 1.0))
    length[~fast] = len(fmt.keep) - 1
    return buf, length


def rows(columns: Sequence[ArrayLike], fmt: str, seps: bytes, end: bytes | None = None) -> Iterator[bytes]:
    """The rows of equal-length columns as text, in chunks of a few thousand
    values: ``fmt % v`` (``"%.17g"`` or ``"%.2f"``) of each value, followed
    by ``seps[j]`` in column ``j``.  ``end``, if given, replaces the last
    separator of the last row."""
    form = _FORMATS[fmt]
    cols = [np.asarray(c, dtype=float) for c in columns]
    width = form.keep.shape[1]
    keep, kept = _rows_of(form.keep), form.keep.sum(axis=1)
    sep = np.frombuffer(seps, np.uint8)
    size = len(cols[0])
    step = max(1, CHUNK_VALUES // len(cols))
    for lo in range(0, size, step):
        r = min(step, size - lo)
        values = np.stack([c[lo : lo + r] for c in cols], axis=1).ravel()
        buf, length = _formatted(values, form)
        for j, s in enumerate(sep.tolist()):
            buf.reshape(r, len(cols), width)[:, j, -1] = s
        text = buf.reshape(-1)[keep[length].view(bool)].tobytes()
        at = np.flatnonzero(length == len(form.keep) - 1)  # per-value %, in row order
        if at.size:
            texts = [fmt % v for v in values[at].tolist()]
            text = _splice(text, np.cumsum(kept[length])[at], texts, sep[at % len(cols)])
        yield text if end is None or lo + r < size else text[:-1] + end


def _splice(data: bytes, ends: np.ndarray, texts: list[str], seps: np.ndarray) -> bytes:
    """``data`` with ``texts[i]`` and ``seps[i]`` inserted at ``ends[i]``."""
    pieces, prev = [], 0
    for at, text, s in zip(ends.tolist(), texts, seps.tolist()):
        pieces += [data[prev:at], text.encode("ascii"), bytes([s])]
        prev = at
    pieces.append(data[prev:])
    return b"".join(pieces)
