"""``repr`` of many floats at once, byte for byte, and the table rows ``solve`` and ``matrix`` print.

CPython's ``repr(float)`` prints the shortest decimal that reads back as the
same float, and of those the nearest, ties to an even last digit (Gay's
dtoa, mode 0).  It costs about a microsecond a value.  :func:`float_reprs`
finds the same decimal for a whole array with numpy, by the rule of Ryu
(U. Adams, PLDI 2018): one 128-bit product per value, here in ``uint64``
halves.

Let x = m * 2^-s with a 53-bit m and E = floor(log10 x), and scale by
10^p, p = 16 - E, so that c = x * 10^p = m * 5^p / 2^(s-p) lies in
[10^16, 10^17).  A decimal of at most 17 significant digits reads back as x
exactly when its scaled value is an integer in the round-trip interval
((2m-1) * 5^p, (2m+1) * 5^p) / 2^(s-p+1).  The numerators are odd, so the
ends are never integers and the rule for including them never applies.
The shortest such decimal is a multiple of 10^t for the largest t with a
multiple of 10^t in the interval; the nearest multiple of 10^t to c, ties
to even, is one of them, because the interval is centred on c.

The fast path covers finite x in [1e-11, 1) whose m is not a power of two
(5^p < 2^63 needs p <= 27; at a power of two the interval is lopsided).
Every other value, and any whose scaled digits fall outside
[10^16, 10^17), is printed by ``repr`` itself.  :func:`rows_text` lays
the prints out in the rows of ``solve``'s and ``matrix``'s tables.  Only
their table writer imports this module, after it has loaded numpy itself.

Every integer step stays in ``uint64``: an ``int64`` operand would promote
the arithmetic to float64 and lose the low bits without an error.
"""

from __future__ import annotations

import functools
import struct
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import ArrayLike, NDArray

_WIDTH = 22  # the longest fast print: "0.000" + 17 digits, or "d." + 16 digits + "e-11"
_MOST = 27  # the largest fast scale p, for E = -11
_FIRST = 986  # the biased exponent of [2^-37, 2^-36), which holds 1e-11; 1022 is [0.5, 1)


def _bits(value: float) -> int:
    return int.from_bytes(struct.pack("<d", value), "little")


@functools.cache
def _scales() -> tuple[NDArray, NDArray]:
    """For each binade [2^-k, 2^(1-k)) of the fast range, 16 - floor(log10 2^-k),
    and the bits of the float nearest the power of ten inside the binade (a
    value at or above it has the scale one less), or 2^64 - 1 if there is none.

    The float nearest 10^j may lie below 10^j; such a value gets a scale one
    too small, and its digits then fall below 10^16 and send it to ``repr``.
    """
    scale, power = [], []
    for k in range(1023 - _FIRST, 0, -1):
        digits = len(str((1 << k) - 1))  # the least j with 10^j > 2^k
        scale.append(16 + digits)
        ten = float(f"1e{1 - digits}")
        power.append(_bits(ten) if ten < 2.0 ** (1 - k) else (1 << 64) - 1)
    return np.array(scale, dtype=np.uint64), np.array(power, dtype=np.uint64)


def float_reprs(values: ArrayLike) -> tuple[NDArray, NDArray]:
    """The ASCII of ``repr(float(v))`` for every element of ``values``.

    Returns a ``uint8`` matrix with one row per element, in order, each
    print left-aligned in its row, and the length of each print; the bytes
    of a row past its length are not part of the print.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    u64 = np.uint64
    bits = x.view(u64)
    # a float's bits order non-negative floats as their values, and put the rest above 1.0's
    fast = (bits >= u64(_bits(1e-11))) & (bits < u64(_bits(1.0))) & ((bits & u64((1 << 52) - 1)) != 0)
    scale, power = _scales()
    binade = np.where(fast, (bits >> u64(52)) - u64(_FIRST), u64(1022 - _FIRST))
    p = scale[binade] - (bits >= power[binade]).astype(u64)
    scaled, t, fast = _shortest(*_scaled(bits, p, fast), fast)

    out, lengths = _lay_out(scaled, (u64(17) - t).astype(np.int64), p - u64(16), fast)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [repr(v).encode("ascii") for v in x[slow].tolist()]
        width = max(_WIDTH, max(map(len, texts)))
        if width > _WIDTH:
            out = np.pad(out, ((0, 0), (0, width - _WIDTH)))
        out[slow] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
        lengths[slow] = [len(text) for text in texts]
    return out, lengths


def rows_text(fields: list, values: ArrayLike, tail: bytes, skip: int) -> str:
    """The rows ``fields`` + repr(value) + ``tail``, one per value, as one text
    without its first ``skip`` bytes.  A field is bytes that every row shares
    or a ``uint8`` matrix with each row's own bytes, one row per value.

    The rows are laid out side by side in one byte matrix, and a mask drops
    the padding of each print from :func:`float_reprs`.
    """
    chars, lengths = float_reprs(values)
    n, width = chars.shape
    fields = [np.frombuffer(field, dtype=np.uint8) if isinstance(field, bytes) else field for field in fields]
    start = sum(field.shape[-1] for field in fields)
    fields += [chars, np.frombuffer(tail, dtype=np.uint8)]
    table = np.hstack([np.broadcast_to(field, (n, field.shape[-1])) for field in fields])
    keep = np.ones(table.shape, dtype=bool)
    keep[:, start : start + width] = np.arange(width) < lengths[:, None]
    keep[0, :skip] = False
    return str(table[keep].data, "ascii")


def _scaled(bits: NDArray, p: NDArray, fast: NDArray) -> tuple[NDArray, NDArray, NDArray, NDArray]:
    """c = x * 10^p = m * 5^p / 2^q exactly, as whole + part / 2^q, then q and 5^p.

    q lies in [36, 62] on the fast rows; the other rows get a shift in range,
    and results that are dropped.
    """
    u64 = np.uint64
    m = (bits & u64((1 << 52) - 1)) | u64(1 << 52)
    q = np.where(fast, u64(1075) - (bits >> u64(52)) - p, u64(40))
    # m * 5^p as hi * 2^64 + lo, from 32-bit halves: no partial product overflows
    half, low32 = u64(32), u64(0xFFFFFFFF)
    five = np.array([5**i for i in range(_MOST + 1)], dtype=u64)[p]
    m0, m1, f0, f1 = m & low32, m >> half, five & low32, five >> half
    ll = m0 * f0
    mid = m0 * f1 + m1 * f0
    lo = ll + (mid << half)
    hi = m1 * f1 + (mid >> half) + (lo < ll).astype(u64)
    one = u64(1)
    return (hi << (u64(64) - q)) | (lo >> q), lo & ((one << q) - one), q, five


def _shortest(
    whole: NDArray, part: NDArray, q: NDArray, five: NDArray, fast: NDArray
) -> tuple[NDArray, NDArray, NDArray]:
    """The 17 digits of the print of each fast row, how many trailing zeros
    they end in, and the fast rows less those whose c or digits leave
    [10^16, 10^17).

    The round-trip interval is c - h to c + h, with h = 5^p / 2^(q+1), here
    h_whole + h_part / 2^(q+1); the integers in it run from ``least`` to ``most``.
    """
    u64, one = np.uint64, np.uint64(1)
    ten = np.array([10**i for i in range(18)], dtype=u64)
    fast = fast & (whole >= ten[16]) & (whole < ten[17])
    q1 = q + one
    h_whole, h_part = five >> q1, five & ((one << q1) - one)
    twice_part = part << one  # c's fraction over 2^(q+1)
    least = whole - h_whole - (twice_part < h_part).astype(u64) + one
    most = whole + h_whole + ((twice_part + h_part) >> q1)

    t = np.zeros(whole.size, dtype=u64)
    for i in range(1, 18):  # a multiple of 10^(i+1) in the interval is a multiple of 10^i
        found = fast & ((most // ten[i]) * ten[i] >= least)
        if not found.any():
            break
        t += found.astype(u64)

    # the nearest multiple of 10^t to c, ties to an even quotient
    step = ten[t]
    digits, rest = whole // step, whole % step
    rest2 = rest << one
    half = one << (q - one)  # a half, over 2^q
    up = (rest2 > step) | ((rest2 == step) & (part > 0)) | ((rest2 + one == step) & (part > half))
    tie = ((rest2 == step) & (part == 0)) | ((rest2 + one == step) & (part == half))
    digits += (up | (tie & ((digits & one) == one))).astype(u64)
    scaled = digits * step
    return scaled, t, fast & (scaled < ten[17])


def _lay_out(scaled: NDArray, count: NDArray, minus_e: NDArray, fast: NDArray) -> tuple[NDArray, NDArray]:
    """The prints of the fast rows, as ``repr`` lays them out, and their lengths.

    A fast row's value is the 17 digits of ``scaled``, of which the first
    ``count`` are significant, times 10^(-16 - ``minus_e``).  repr prints
    it as "0.", ``minus_e - 1`` zeros and the digits when ``minus_e`` <= 4,
    and otherwise as the first digit, "." and the others if there are any,
    "e-" and ``minus_e`` in two digits.  Each layout puts the digits at a
    fixed column, so the rows of each are written together.
    """
    u64 = np.uint64
    n = scaled.size
    # the digits with three leading zeros, four at a time: "000" + the first, then the others
    digits = np.empty((n, 5), dtype=np.uint32)
    above = u64(0)
    for j in range(5):
        quotient = scaled // u64(10 ** (16 - 4 * j))
        digits[:, j] = _four_digits()[quotient - above * u64(10_000)]
        above = quotient
    digits = digits.view(np.uint8)  # (n, 20)
    out = np.empty((n, _WIDTH), dtype=np.uint8)
    out[:, 0] = digits[:, 3]
    out[:, 1] = ord(".")
    out[:, 2:18] = digits[:, 4:]
    lengths = count + (count > 1) + 4
    for zeros in range(4):  # "0.", then zeros and the digits, for minus_e = zeros + 1
        rows = np.flatnonzero(fast & (minus_e == u64(zeros + 1)))
        out[rows, 0] = ord("0")
        out[rows, 2 : 19 + zeros] = digits[rows, 3 - zeros :]
        lengths[rows] = count[rows] + (2 + zeros)
    rows = np.flatnonzero(fast & (minus_e > u64(4)))
    at = rows * _WIDTH + lengths[rows] - 4  # where "e-" starts
    exponent = minus_e[rows]
    flat = out.reshape(-1)
    flat[at] = ord("e")
    flat[at + 1] = ord("-")
    flat[at + 2] = exponent // u64(10) + u64(ord("0"))
    flat[at + 3] = exponent % u64(10) + u64(ord("0"))
    return out, lengths


@functools.cache
def _four_digits() -> NDArray:
    """The ASCII of 0000, ..., 9999, each as the uint32 its four bytes make."""
    number = np.arange(10_000, dtype=np.uint32)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.uint32)
    return (number // place % np.uint32(10) + np.uint32(ord("0"))).astype(np.uint8).view(np.uint32).reshape(-1)
