"""Exact ``%.17g`` text of float64 arrays, and the CSV/JSON tables built from it.

``'%.17g' % x`` costs about 0.75 µs per value, which made text most of the
cost of ``simulate`` and ``sweep``. This module produces the same bytes with
whole-array integer arithmetic:

1. **Scale.** With E = ⌊log₁₀|x|⌋ the 17 significant digits are the integer
   N = round(|x|·10^(16−E)) in [10^16, 10^17). The product is a Dekker
   two-product of |x| with the double-double hi + lo = 10^(16−E). Since
   N > 2^53, the rounded product |x|·hi is already an integer, and the
   rounding of N is read from the small remainder, which is good to about
   1e-14. When log₁₀ lands one decade off, N leaves [10^16, 10^17) and E ± 1
   is tried once.
2. **Exact path.** ``'%.17g' %`` formats, one at a time, what the scaling
   cannot settle: non-finite values, |x| outside [1e-250, 1e250] (where the
   two-product would overflow or underflow), remainders within 1e-6 of a
   rounding tie, and N = 10^16 unless x is an exact power of ten. The double
   nearest 10^E may lie just below it, where the digits are
   99999999999999997·10^(E−17), and the remainder cannot tell which side of
   10^16 the product is on. Zeros stay on the fast path.
3. **Digits.** Each 8 digits become the 8 ASCII bytes of one little-endian
   uint64 word by SWAR (SIMD within a register): 8 digits split into 4 + 4,
   then 2 + 2, then 1 + 1, with one multiply, shift and mask per step for
   every lane at once.
4. **Layout.** A value is 4 words: a prefix word with the sign and the
   ``0.000`` of fixed-point values below 1, then the integer digits, the '.'
   and the fraction digits without trailing zeros, then the ``e±XX`` suffix.
   The prefix, suffix and byte masks come from one table with a row per E,
   built on first use. Unused bytes are zero, and the text never contains a
   zero byte, so dropping every zero byte of a row of words leaves its text.

``table_chunks`` lays each table row out as the value words of its 1-D
columns between constant separator words. It takes the table as a stream of
row blocks and yields the text in chunks of a bounded number of values, so
neither the table nor its text is ever held whole.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator

import numpy as np

_SPLIT = 134217729.0            # 2**27 + 1, Veltkamp's splitter for the two-product
_FAST_MIN, _FAST_MAX = 1e-250, 1e250
_TIE_GUARD = 1e-6               # the remainder's error bound is about 1e-14
_N_MIN, _N_MAX = 10**16, 10**17
_E_OFFSET = 256                 # row of E = 0 in the layout table
_CHUNK_VALUES = 1 << 13         # values rendered per chunk: bounds the temporaries
_BYTES = 0x0101010101010101     # times a byte value: that byte in all 8 lanes


@functools.cache
def _pow10(k: int) -> tuple[float, float, float, float]:
    """10^k as a double-double hi + lo, with hi split into two 26-bit halves.

    hi is 10^k correctly rounded and lo is 10^k − hi correctly rounded, both
    from exact integer ratios.
    """
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    p, q = hi.as_integer_ratio()
    lo = (num * q - p * den) / (den * q)
    c = _SPLIT * hi
    hi_head = c - (c - hi)
    return hi, lo, hi_head, hi - hi_head


@functools.cache
def _layout():
    """Per-exponent words, row E + ``_E_OFFSET``, built on first use.

    Column 0 is the prefix word: ``0.`` and −E − 1 zeros at bytes 1..5 where
    ``%.17g`` writes a value below 1 in fixed point (−4 ≤ E ≤ −1). Columns 1-3
    are the three words of the mask of the digits before the '.' (E + 1 of
    them in fixed point, none below 1, one in exponent notation), columns 4-6
    the three words with the '.' right after those digits, and column 7 the
    ``e±XX`` suffix at bytes 2..6 of the last word where ``%.17g`` uses
    exponent notation (E < −4 or E ≥ 17).
    """
    rows = []
    for e in range(-_E_OFFSET, _E_OFFSET):
        expo = not -4 <= e < 17
        whole = 1 if expo else max(e + 1, 0)
        prefix = b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b""
        dot = b"." if 0 < whole < 17 else b""
        text = (b"\0" + prefix).ljust(8, b"\0") + (b"\xff" * whole).ljust(24, b"\0")
        text += (b"\0" * whole + dot).ljust(24, b"\0")
        text += (b"\0\0" + (b"e%+03d" % e if expo else b"")).ljust(8, b"\0")
        rows.append(text)
    return np.frombuffer(b"".join(rows), dtype="<u8").reshape(-1, 8).astype(np.uint64)


def _scaled(ax, e):
    """N = round(ax·10^(16−e)) as int64, and whether the exact product lies
    within ``_TIE_GUARD`` of a rounding tie."""
    k = 16 - e
    k0 = int(k.min())
    table = np.array([_pow10(j) for j in range(k0, int(k.max()) + 1)])
    hi, lo, hi_head, hi_tail = table.take(k - k0, axis=0).T
    p = ax * hi
    c = _SPLIT * ax
    a_head = c - (c - ax)
    a_tail = ax - a_head
    # ax·hi = p + err exactly (Dekker); the remainder adds ax·lo
    rem = ((a_head * hi_head - p) + a_head * hi_tail + a_tail * hi_head) + a_tail * hi_tail
    rem += ax * lo
    q = np.rint(rem)
    tie = np.abs(rem - q) > 0.5 - _TIE_GUARD
    return p.astype(np.int64) + q.astype(np.int64), tie


def _decimal17(ax):
    """(E, N, exact) for positive finite ``ax`` inside the fast range: the
    decimal exponent, the 17 significant digits, and where the exact path
    must format instead."""
    e = np.floor(np.log10(ax)).astype(np.int64)
    n, exact = _scaled(ax, e)
    off = np.flatnonzero((n < _N_MIN) | (n >= _N_MAX))
    if off.size:
        e[off] += np.where(n[off] >= _N_MAX, 1, -1)
        n[off], tie = _scaled(ax[off], e[off])
        exact[off] = tie | (n[off] < _N_MIN) | (n[off] >= _N_MAX)
    edge = np.flatnonzero(n == _N_MIN)
    if edge.size:
        ee = e[edge]
        power = (ee >= 0) & (ee <= 22) & (ax[edge] == 10.0 ** np.clip(ee, 0, 22))
        exact[edge] |= ~power
    return e, n, exact


def _digits8(v):
    """The 8 decimal digits of each uint64 ``v`` < 10^8 as byte values 0..9,
    most significant in byte 0."""
    hi = v // 10000
    w = hi | ((v - hi * 10000) << 32)
    hi = ((w * 10486) >> 20) & 0x0000007F0000007F       # ⌊x/100⌋ per 32-bit lane
    w = hi | ((w - hi * 100) << 16)
    hi = ((w * 103) >> 10) & 0x000F000F000F000F         # ⌊x/10⌋ per 16-bit lane
    return hi | ((w - hi * 10) << 8)


def _smear_down(f):
    """Flags 0x80 at some bytes of a word become 0x80 at every byte at or
    below the highest flagged one."""
    f |= f >> 8
    f |= f >> 16
    f |= f >> 32
    return f


def g17_words(x) -> np.ndarray:
    """``'%.17g' % v`` for each value of the 1-D float64 ``x`` as an (n, 4)
    array of little-endian uint64 words, padded with zero bytes.

    Byte 7 of the last word is always zero, free for a separator.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    ax = np.abs(x)
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)
    zero = ax == 0.0
    e, n, exact = _decimal17(np.where(fast, ax, 1.0))
    exact |= ~(fast | zero)
    n[zero] = 0
    n = n.view(np.uint64)

    # digits 0-7, 8-15 and 16 as byte values, each flagged 0x80 at and below
    # its last nonzero digit: fraction digits past that are trailing zeros
    tens = n // 10
    top = tens // 10**8
    digits = (_digits8(top), _digits8(tens - top * 10**8), n - tens * 10)
    f2 = (digits[2] + 0x7F) & 0x80
    f1 = _smear_down(((digits[1] + 0x7F * _BYTES) & (0x80 * _BYTES)) | (f2 << 56))
    f0 = _smear_down(((digits[0] + 0x7F * _BYTES) & (0x80 * _BYTES)) | ((f1 & 0x80) << 56))

    prefix, *masks, suffix = _layout().take(e + _E_OFFSET, axis=0).T
    words = np.empty(x.shape + (4,), dtype=np.uint64)
    words[:, 0] = prefix | (x.view(np.uint64) >> 63) * 0x2D
    # integer digits (zeros kept), then '.' and the fraction one byte up; the
    # '.' stays only where a fraction digit survives
    carry = 0
    for j, (r, f) in enumerate(zip(digits, (f0, f1, f2))):
        live = (f >> 7) * 0xFF
        whole, dot = masks[j], masks[j + 3]
        ascii = r | (0x30 * _BYTES if j < 2 else 0x30)
        frac = ascii & live & ~whole
        words[:, j + 1] = (ascii & whole) | (frac << 8) | carry | (dot & live)
        carry = frac >> 56
    words[:, 3] |= suffix

    slow = np.flatnonzero(exact)
    if slow.size:
        words[slow, :3] = _exact_words(x[slow])
        words[slow, 3] = 0
    return words


def _exact_words(values) -> np.ndarray:
    """``'%.17g' % v`` one value at a time, as 3 words each (at most 24 bytes)."""
    text = b"".join(("%.17g" % v).encode("ascii").ljust(24, b"\0") for v in values.tolist())
    return np.frombuffer(text, dtype="<u8").reshape(-1, 3)


def _to_words(text: str) -> list[int]:
    raw = text.encode("ascii")
    raw += b"\0" * (-len(raw) % 8)
    return [int.from_bytes(raw[i:i + 8], "little") for i in range(0, len(raw), 8)]


def _segments(columns, names, fmt: str) -> list[str]:
    """The constant text of a row before, between and after its 1-D columns."""
    segments = [""]
    for j, (name, c) in enumerate(zip(names, columns)):
        if fmt == "csv":
            segments[-1] += "," if j else ""
        else:
            segments[-1] += ("{" if j == 0 else ", ") + f'"{name}": '
        if np.ndim(c):
            segments.append("")
        else:
            segments[-1] += "%.17g" % c
    segments[-1] += "\n" if fmt == "csv" else "}"
    return segments


def table_chunks(blocks, names, fmt: str) -> Iterator[str]:
    """CSV or JSON text of a table given as consecutive row blocks, each
    value as ``%.17g``, in chunks.

    Each block is a sequence of columns, one per name, 1-D of one length
    (at least one) or 0-d. A 0-d column holds the same value on every row:
    it is formatted once and becomes part of the constant text between the
    1-D columns, so every block must have the same 0-d columns. The bytes
    equal those of the broadcast columns joined over the blocks. One block
    is taken at a time and its text yielded in chunks of a bounded number
    of values, so neither the table nor its text is ever held whole.
    """
    blocks = iter(blocks)
    first = next(blocks, None)
    if first is None:
        raise ValueError("a table needs at least one block")
    segments = _segments(first, names, fmt)

    def varying(columns):
        v = [np.asarray(c, dtype=np.float64) for c in columns if np.ndim(c)]
        if (not v or any(x.ndim != 1 or len(x) != len(v[0]) for x in v)
                or _segments(columns, names, fmt) != segments):
            raise ValueError("each block needs 0-d or 1-D columns of one length, at "
                             "least one 1-D, and the 0-d columns of the first block")
        return v

    blocks = itertools.chain([varying(first)], map(varying, blocks))
    del first  # the chain holds the first block only until it is rendered

    # Word layout: the first segment, then per value its 4 words and what its
    # following segment leaves after its first byte, which rides in byte 7
    # of the value's last word. Row 0 of a JSON table drops the ",\n  ".
    between = "" if fmt == "csv" else ",\n  "
    template = _to_words(between + segments[0])
    lead = len(template)
    first_row = np.array((_to_words(segments[0]) + [0] * lead)[:lead], dtype=np.uint64)
    offsets = []
    for seg in segments[1:]:
        offsets.append(len(template))
        template += [0, 0, 0, 0] + _to_words(seg[1:])
    template = np.array(template, dtype=np.uint64)
    separators = np.array([ord(seg[0]) << 56 for seg in segments[1:]], dtype=np.uint64)
    step = max(1, _CHUNK_VALUES // len(offsets))

    yield ",".join(names) + "\n" if fmt == "csv" else "[\n  "
    row0 = True
    for columns in blocks:
        for start in range(0, len(columns[0]), step):
            chunk = np.stack([c[start:start + step] for c in columns], axis=1)
            rows = len(chunk)
            words = g17_words(chunk.ravel()).reshape(rows, len(columns), 4)
            words[:, :, 3] |= separators
            table = np.empty((rows, len(template)), dtype=np.uint64)
            table[:] = template
            for j, o in enumerate(offsets):
                table[:, o:o + 4] = words[:, j]
            if row0:
                table[0, :lead] = first_row
                row0 = False
            yield table.astype("<u8", copy=False).tobytes().translate(None, b"\0").decode("ascii")
    if fmt == "json":
        yield "\n]\n"
