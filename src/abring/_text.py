"""Bulk float text: whole arrays written exactly as per-value ``'%.17g' % v``
and ``'%.2f' % v`` would write them, byte for byte.

Rounding is exact.  Dekker's error-free product gives
``hi + lo == |v| * 10**s`` with no rounding error (``10**s`` is exact in
binary64 for ``s <= 22``), and ``hi + lo`` is rounded half to even to an
int64 holding the printed digits, as ``%`` rounds the exact binary value.
``%.17g`` takes ``s = 16 - e10`` on ``1e-4 <= |v| < 1e16``; ``%.2f`` takes
``s = 2`` on ``0 <= v < 1e5``.  The digits come from a 4-digit lookup
table, the decimal point is placed with one fixed layout per (exponent,
sign) group, trailing zeros are dropped through the lengths, and a mask
assembles the bytes.

Every other value keeps the per-value ``%``, its one route: for ``%.17g``
zeros, ``-0.0``, nan, infinities and ``|v|`` below ``1e-4`` or from
``1e16`` on (exponent notation); for ``%.2f`` anything negative (``-0.0``
included), nan, or from ``1e5`` on.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike

__all__ = ["rows"]

CHUNK_VALUES = 8192  # values formatted at a time: bounds the temporaries

# Row q of _DIGITS4 is the four ASCII digits of q as one uint32; _ZEROS4[q]
# counts the trailing zeros of those four digits (4 for q = 0).
_QUADS = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
_DIGITS4 = (_QUADS + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_ZEROS4 = np.cumprod(_QUADS[:, ::-1] == 0, axis=1).sum(axis=1)
del _QUADS

_POW10 = np.array([float(10**k) for k in range(23)])  # each one exact


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


def _rint(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``hi + lo`` rounded half to even, as int64, for ``|lo|`` at most half
    an ulp of ``hi``.

    Exact below ``2**52``, where ``|lo| < 0.5`` only decides a halfway
    ``hi``, and from ``2**53`` on, where ``hi`` is an even integer and
    rounding ``lo`` alone keeps the parity: ``%.2f`` scales to below
    ``1e7``, ``%.17g`` to at least ``1e16``.
    """
    r = np.rint(hi)
    d = hi - r
    n = r.astype(np.int64) + np.rint(lo).astype(np.int64)
    n += (d == 0.5) & (lo > 0)
    n -= (d == -0.5) & (lo < 0)
    return n


def _digits17(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(n, e10)``: ``1e-4 <= a < 1e16`` rounded to 17 digits
    ``10**16 <= n < 10**17``, and its decimal exponent, from a guess ``e``.

    A guess one too high gives ``n < 10**16``; one too low, or a value
    that rounds up to the next power of ten, gives ``n >= 10**17``.  Either
    way the exponent moves by one and the digits are recomputed.
    """
    n = _rint(*_scaled(a, 16 - e))
    step = (n >= 10**17).astype(np.int64) - (n < 10**16)
    redo = np.flatnonzero(step)
    if redo.size:
        n[redo], e[redo] = _digits17(a[redo], e[redo] + step[redo])
    return n, e


# _g17 lays out the bytes of (n, sign) as uint32 words: 17 digits at bytes 3
# to 19 ("000" pads the leading digit), then "-", ".", "0".  One layout per
# (e10, sign) group picks the text "[-]ddd.ddd" or "[-]0.000ddd" from them,
# with all 17 digits; the length then drops trailing zeros and a bare ".".
_G17_TEXT = 23  # "-0.000" and 17 digits
_G17_CONST = np.frombuffer(b"-.0 ", np.uint32)[0]
_G17_E10 = range(-4, 17)


def _g17_layout(e: int, neg: bool) -> list[int]:
    digits = list(range(3, 20))
    body = digits[: e + 1] + [21] + digits[e + 1 :] if e >= 0 else [22, 21] + [22] * (-e - 1) + digits
    text = [20] * neg + body
    return text + [22] * (_G17_TEXT - len(text))


_G17_LAYOUTS = np.array([_g17_layout(e, neg) for e in _G17_E10 for neg in (False, True)])


def _g17(v: np.ndarray, sep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.abs(v)
    n, e = _digits17(a, np.floor(np.log10(a)).astype(np.int64))
    neg = np.signbit(v)
    quads = []  # n in base 10**4, from the leading digit down
    for _ in range(4):
        q = n // 10**4
        quads.insert(0, n - q * 10**4)
        n = q
    quads.insert(0, n)
    words = np.empty((v.size, 6), np.uint32)
    for j, q in enumerate(quads):
        words[:, j] = _DIGITS4[q]
    words[:, 5] = _G17_CONST
    ext = words.view(np.uint8)
    zeros = _ZEROS4[quads[4]]
    run = quads[4] == 0
    for q in quads[3:0:-1]:  # the leading digit is never 0
        if not run.any():
            break
        zeros += run * _ZEROS4[q]
        run &= q == 0
    frac = np.maximum(16 - zeros - e, 0)  # digits printed after the point
    length = neg + np.maximum(e, 0) + 1 + frac + (frac > 0)
    group = (e - _G17_E10.start) * 2 + neg
    buf = np.empty((v.size, _G17_TEXT + 1), np.uint8)
    for g in np.flatnonzero(np.bincount(group, minlength=len(_G17_LAYOUTS))):
        at = np.flatnonzero(group == g)
        buf[at, :_G17_TEXT] = ext[at][:, _G17_LAYOUTS[g]]
    buf[np.arange(v.size), length] = sep
    return buf, np.arange(_G17_TEXT + 1) <= length[:, None]


# _f2 writes n = round(100 v) < 10**8 as 8 digits, takes the text
# "dddddd.dd" and a separator from them, and starts it at the first
# integer digit that is not a leading zero.
_F2_LAYOUT = [0, 1, 2, 3, 4, 5, 8, 6, 7, 9]
_F2_WIDE = np.array([10**k for k in range(3, 8)])  # n from which the integer part has one more digit


def _f2(v: np.ndarray, sep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = _rint(*_scaled(v, 2))
    top = n // 10**4
    words = np.empty((v.size, 3), np.uint32)
    words[:, 0] = _DIGITS4[top]
    words[:, 1] = _DIGITS4[n - top * 10**4]
    ext = words.view(np.uint8)
    ext[:, 8] = ord(".")
    ext[:, 9] = sep
    start = 5 - np.searchsorted(_F2_WIDE, n, side="right")
    return ext[:, _F2_LAYOUT], np.arange(len(_F2_LAYOUT)) >= start[:, None]


_FORMATS = {
    "%.17g": (lambda v: (np.abs(v) >= 1e-4) & (np.abs(v) < 1e16), _g17),
    "%.2f": (lambda v: ~np.signbit(v) & (v < 1e5), _f2),
}


def _chunk(v: np.ndarray, fmt: str, sep: np.ndarray) -> bytes:
    """``b"".join(b"%s%c" % (fmt % x, s) for x, s in zip(v, sep))``."""
    in_range, bulk = _FORMATS[fmt]
    fast = in_range(v)
    buf, keep = bulk(np.where(fast, v, 1.0), sep)
    if fast.all():
        return buf[keep].tobytes()
    keep[~fast] = False
    slow = np.flatnonzero(~fast)
    ends = np.cumsum(keep.sum(axis=1))[slow]
    data = buf[keep].tobytes()
    pieces, prev = [], 0
    for at, x, s in zip(ends.tolist(), v[slow].tolist(), sep[slow].tolist()):
        pieces += [data[prev:at], (fmt % x).encode("ascii"), bytes([s])]
        prev = at
    pieces.append(data[prev:])
    return b"".join(pieces)


def rows(columns: Sequence[ArrayLike], fmt: str, seps: bytes, end: bytes | None = None) -> Iterator[bytes]:
    """The rows of equal-length columns as text, in chunks of a few thousand
    values: ``fmt % v`` (``"%.17g"`` or ``"%.2f"``) of each value, followed
    by ``seps[j]`` in column ``j``.  ``end``, if given, replaces the last
    separator of the last row."""
    cols = [np.asarray(col, dtype=float) for col in columns]
    sep = np.frombuffer(seps, np.uint8)
    size = len(cols[0])
    step = max(1, CHUNK_VALUES // len(cols))
    for lo in range(0, size, step):
        block = np.stack([col[lo : lo + step] for col in cols], axis=1)
        text = _chunk(block.ravel(), fmt, np.tile(sep, len(block)))
        yield text if end is None or lo + step < size else text[:-1] + end
