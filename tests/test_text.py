"""Bulk float text against per-value ``%``, byte for byte."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abring._text import CHUNK_VALUES, rows

FORMATS = ["%.17g", "%.2f"]


def bulk(values, fmt):
    """The bulk text of ``values`` as one column, one value per line.

    Any warning is an error: nan, inf and subnormal inputs must pass quietly.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return b"".join(rows([values], fmt, b"\n"))


def per_value(values, fmt):
    return "".join(fmt % v + "\n" for v in np.asarray(values, dtype=float).tolist()).encode("ascii")


def assert_same_text(values, fmt):
    got, expected = bulk(values, fmt), per_value(values, fmt)
    if got != expected:  # name the first value that differs, not a 1 MB diff
        pairs = zip(got.splitlines(), expected.splitlines(), np.asarray(values).tolist())
        bad = next((v, g, e) for g, e, v in pairs if g != e)
        pytest.fail(f"{fmt} of {bad[0]!r} ({float(bad[0]).hex()}): got {bad[1]!r}, expected {bad[2]!r}")


def floats_from_bits(lo=0, hi=2**64 - 1):
    """Lists of float64 whose bit patterns are drawn from [lo, hi]."""
    bits = st.lists(st.integers(lo, hi), min_size=1, max_size=64)
    return bits.map(lambda b: np.array(b, dtype=np.uint64).view(np.float64))


def bits_of(v):
    return int(np.float64(v).view(np.uint64))


def signed(values):
    return np.concatenate([values, -values])


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=300, deadline=None)
@given(values=floats_from_bits())
def test_arbitrary_bit_patterns(fmt, values):
    assert_same_text(values, fmt)


@settings(max_examples=300, deadline=None)
@given(values=floats_from_bits(bits_of(1e-5), bits_of(1e17)), negate=st.booleans())
def test_bit_patterns_around_the_17_digit_range(values, negate):
    assert_same_text(-values if negate else values, "%.17g")


@settings(max_examples=300, deadline=None)
@given(values=floats_from_bits(0, bits_of(2e5)))
def test_bit_patterns_around_the_2_decimal_range(values):
    assert_same_text(values, "%.2f")


@pytest.mark.parametrize(
    "values",
    [
        np.arange(2**17 + 1, 10 * 2**17, 2) / 2**17,  # [1, 10): a tie at the 17th digit
        np.arange(2**18 // 10 + 1, 2**18, 2) / 2**18,  # [0.1, 1)
    ],
    ids=["j/2**17", "j/2**18"],
)
def test_17_digit_ties(values):
    assert_same_text(values, "%.17g")
    assert_same_text(-values[::97], "%.17g")


@pytest.mark.parametrize(
    "values",
    [
        np.arange(1, 8 * 100_001, 2) / 8,  # odd k: each one a tie at the second decimal
        np.arange(1, 200_000, 2) / 200,  # the doubles nearest x.xx5: 100 v can round onto a tie
        72 + 39 * np.arange(2**16 + 1) / 4096,  # SVG x at 65,537 phases: ties at k = 512 mod 1024
    ],
    ids=["k/8", "k/200", "72+39k/4096"],
)
def test_2_decimal_ties(values):
    assert_same_text(values, "%.2f")
    assert_same_text(-values[::97], "%.2f")


def test_2_decimal_tie_margin():
    # %.2f rounds fl(100 v) with rint and takes Dekker's lo only within
    # 2**-30 of a half-integer.  Walk the doubles around (k + 0.5) / 100
    # where fl(100 v) spans [2**20, 1e7): values inside the margin, on its
    # edges and just outside it on either side of the tie.
    margin = 2.0**-30
    k = np.unique(np.geomspace(2**20, 10**7 - 1, 400).astype(np.int64))
    bits = ((k + 0.5) / 100).view(np.int64)[:, None] + np.arange(-96, 97)
    values = bits.ravel().view(np.float64)
    hi = values * 100
    gap = np.abs(np.abs(hi - np.rint(hi)) - 0.5)
    below = hi - np.floor(hi) < 0.5
    for name, where in [("inside", gap < margin), ("edge", gap == margin), ("outside", (gap > margin) & (gap <= 4 * margin))]:
        assert (where & below).any() and (where & ~below).any(), name
    assert_same_text(values, "%.2f")


def test_2_decimal_neighbours_of_every_hundredth_and_a_half():
    # k/100 + 0.005 up to 1e5; the last, 99999.995, is where the bulk range ends.
    base = np.append(np.arange(0, 10**7, 97), 10**7 - 1) / 100 + 0.005
    assert_same_text(np.concatenate([np.nextafter(base, 0), base, np.nextafter(base, np.inf)]), "%.2f")


def test_17_digit_chunks_with_every_layout_group():
    # Every (e10, sign) group in each chunk, and a different largest group
    # in each: every group's layout is built both over the whole chunk and
    # for rows moved through the row view.
    rng = np.random.default_rng(7)
    groups = [(e, sign) for e in range(-4, 16) for sign in (1.0, -1.0)]
    chunks = []
    for largest in [(-4, 1.0), (15, -1.0), (-1, 1.0)]:
        each = (CHUNK_VALUES - 2000) // len(groups)
        picks = groups * each + [largest] * (CHUNK_VALUES - each * len(groups))
        e, sign = np.array(picks).T
        chunk = sign * rng.uniform(1.0, 10.0, len(picks)) * 10.0**e
        chunks.append(rng.permutation(chunk))
    assert_same_text(np.concatenate(chunks), "%.17g")


@pytest.mark.parametrize("fmt", FORMATS)
def test_neighbours_of_powers_of_ten(fmt):
    # Includes the edges of the %.17g bulk range, 1e-4 and 1e16, and 1e5,
    # just above the end of the %.2f bulk range.
    powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
    values = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
    assert_same_text(signed(values), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_special_and_edge_values(fmt):
    values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, 1e-5, 9.999999999999998e15, 99999.995, 1e300, -0.001]
    assert_same_text(signed(np.array(values)), fmt)


def test_separators_and_end_across_chunks():
    n = 20_000  # several chunks of the two-column block
    x = np.linspace(0.0, 700.0, n)
    y = np.where(np.arange(n) % 997 == 0, np.nan, np.sin(x))
    got = b"".join(rows([x, y], "%.2f", b", ", end=b"|"))
    expected = " ".join("%.2f,%.2f" % p for p in zip(x.tolist(), y.tolist())) + "|"
    assert got == expected.encode("ascii")


def test_no_rows():
    assert b"".join(rows([[], []], "%.17g", b",\n")) == b""


@pytest.mark.parametrize("fmt", FORMATS)
def test_column_with_fallbacks_on_chunk_edges(fmt):
    # Two columns take CHUNK_VALUES // 2 rows per chunk and three take
    # CHUNK_VALUES // 3; values that take the per-value % sit on both sides
    # of those edges, and the last five rows of x hold nothing else.
    half, third = CHUNK_VALUES // 2, CHUNK_VALUES // 3
    n = 2 * CHUNK_VALUES + 5
    x = np.linspace(0.25, 900.0, n)
    x[[0, third - 1, third, half - 1, half, CHUNK_VALUES - 1, CHUNK_VALUES]] = [
        np.nan, np.inf, -1e-300, -3.25, 1e5, -0.0, 2.5e17]
    x[2 * CHUNK_VALUES :] = [np.inf, -np.inf, np.nan, -1.0, 1e300]
    y = np.linspace(-2.0, 5e4, n)
    y[[third - 1, 2 * third, half - 1, half, n - 1]] = [-np.inf, 0.0, np.nan, 1e5, -7.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = b"".join(rows([x, y], fmt, b", ", end=b"|"))
        again = b"".join(rows([y, x, y], fmt, b";,\n"))
    assert got == (" ".join(f"{fmt % a},{fmt % b}" for a, b in zip(x.tolist(), y.tolist())) + "|").encode("ascii")
    assert again == "".join(f"{fmt % b};{fmt % a},{fmt % b}\n" for a, b in zip(x.tolist(), y.tolist())).encode("ascii")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("value", [0.5, np.nan, -1.0, 1e5])
def test_column_of_one_value(fmt, value):
    assert b"".join(rows([[value], [2.0]], fmt, b" \n")) == f"{fmt % value} {fmt % 2.0}\n".encode("ascii")
    got = b"".join(rows([[2.0], [value], [value]], fmt, b" ,\n"))
    assert got == f"{fmt % 2.0} {fmt % value},{fmt % value}\n".encode("ascii")
