"""The '%.17g' text of a block of float64 values in one pass of array arithmetic.

The bytes equal those of '%.17g' % v for every value.  Each value is
D x 10^(X - 16), where D = round(|v| 10^q) holds the 17 significant digits and
q = 16 - X.  |v| 10^q is formed as a double-double: a Veltkamp split and
Dekker two-product of |v| with a hi + lo table of 10^q.  Because
|v| 10^q < 10^17, its error is at most 2^-47.  So D is the correctly rounded
digit string unless the fraction of |v| 10^q lies within 2^-30 of 1/2 (a
possible tie).  Those rows, |v| outside [1e-270, 1e290) and rows where
floor(log10 |v|) came out one off (within rounding of a power of ten, so
that D falls outside [10^16, 10^17)) take the exact '%.17g' % v.
Signed zeros, infinities and NaN (which prints no sign) are written
directly.

The text of value i is column i of a (SLOT, n) uint8 array, one byte a row,
so that each row is written in one contiguous pass.  Bytes a value does not
use are NUL:

    row 0       the sign
    rows 1-5    '0.' and up to three zeros, for -4 <= X < 0
    rows 6-38   the 17 digits at even rows, each of the first 16 followed
                by an optional '.'
    rows 39-43  'e', the exponent's sign and its two or three digits

The tables are built on first use, not at import.
"""

import functools

import numpy as np

SLOT = 44
# |v| served by the 10^q table: outside it the split products of the
# two-product would overflow or lose bits to subnormals
_LOW, _HIGH = 1e-270, 1e290
# q = 16 - floor(log10 |v|) over that range, log10 rounding included
_QMIN, _QMAX = -274, 287
_TIE = 2.0**-30
_SPLIT = 2.0**27 + 1
# below this many values the per-value text costs less than the kernel's
# fixed cost of about 0.2 ms (256 values took 0.23 ms either way)
_KERNEL_MIN = 256
_ZERO, _DOT, _MINUS = np.uint8(ord("0")), np.uint8(ord(".")), np.uint8(ord("-"))


@functools.cache
def _tables():
    """hi and lo of 10^q for q in [_QMIN, _QMAX], the text of each 4-digit group and its trailing zeros."""
    hi, lo = [], []
    for q in range(_QMIN, _QMAX + 1):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        # int / int is correctly rounded, and so is the exact remainder over it
        h = num / den
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    group = np.arange(10000)
    digits = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1)
    # one native uint32 word per group: a word gather is faster than a (10000, 4) row gather
    text = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    zeros = sum((group % p == 0).astype(np.int64) for p in (10, 100, 1000, 10000))
    return np.array(hi), np.array(lo), text, zeros


def _split(a):
    """Veltkamp split: a = hi + lo exactly, each with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _scaled(m, q):
    """floor(m 10^q) as int64 and its fraction, from the double-double product."""
    hi, lo = _tables()[:2]
    h, l = hi[q - _QMIN], lo[q - _QMIN]
    p = m * h
    mh, ml = _split(m)
    hh, hl = _split(h)
    # Dekker: the exact rounding error of m h, plus m times the lo of 10^q
    t = (((mh * hh - p) + mh * hl + ml * hh) + ml * hl) + m * l
    # p >= 10^16 > 2^53 is an integer whenever the row settles
    whole = np.floor(t)
    return p.astype(np.int64) + whole.astype(np.int64), t - whole


def _divmod(a, c):
    # floor division by a constant is several times faster than np.divmod
    high = a // c
    return high, a - high * c


def _exact(values):
    """'%.17g' % v of each value, NUL-padded: (24, n) uint8, 24 bytes being the longest such text."""
    texts = ["%.17g" % v for v in values.tolist()]
    return np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24).T


def format_block(a):
    """'%.17g' text of each value of a 1-D float64 array, as a (SLOT, n) uint8 array.

    Fewer than _KERNEL_MIN values are formatted one by one.
    """
    a = np.asarray(a, dtype=np.float64)
    if len(a) < _KERNEL_MIN:
        out = np.zeros((SLOT, len(a)), np.uint8)
        out[:24] = _exact(a)
        return out
    text4, zeros4 = _tables()[2:]
    mag = np.abs(a)
    fast = (mag >= _LOW) & (mag < _HIGH)
    m = np.where(fast, mag, 1.0)
    # floor(log10) may miss by one within rounding of a power of ten; such a
    # row lands outside [10^16, 10^17), or rounds up to D = 10^17, and takes
    # the exact text below
    q = 16 - np.floor(np.log10(m)).astype(np.int64)
    n, frac = _scaled(m, q)
    d = n + (frac > 0.5)
    fast &= (n >= 10**16) & (d < 10**17) & (np.abs(frac - 0.5) >= _TIE)
    x = 16 - q

    lead, rest = _divmod(d, 10**16)
    high, low = _divmod(rest, 10**8)
    groups = _divmod(high, 10**4) + _divmod(low, 10**4)
    zeros = zeros4[groups[3]]
    for k, g in zip((4, 8, 12), groups[2::-1]):
        # a group of zeros continues the run into the group before it
        zeros = np.where(zeros == k, k + zeros4[g], zeros)
    sig = 17 - zeros
    fixed = (x >= -4) & (x <= 16)
    # point counts the digits before the '.'. Fixed notation writes all of
    # them, trailing zeros included; a row finished after the kernel writes none
    point = np.where(fixed, x + 1, 1)
    ndigits = np.where(fixed, np.maximum(sig, point), sig) * fast
    dot = np.where((point >= 1) & (sig > point), point, 0)

    out = np.empty((SLOT, len(a)), np.uint8)
    out[0] = np.signbit(a) * _MINUS
    small = fixed & (x < 0)
    out[1] = small * _ZERO
    out[2] = small * _DOT
    for row, limit in ((3, -2), (4, -3), (5, -4)):
        out[row] = (fixed & (x <= limit)) * _ZERO
    out[6] = lead + _ZERO
    for j, g in enumerate(groups):
        out[8 + 8 * j : 16 + 8 * j : 2] = text4[g].view(np.uint8).reshape(-1, 4).T
    out[6:39:2] *= np.arange(17)[:, None] < ndigits
    out[7:38:2] = (np.arange(1, 17)[:, None] == dot) * _DOT
    expo = ~fixed
    big = np.abs(x) >= 100
    chars = text4[np.abs(x)].view(np.uint8).reshape(-1, 4)
    out[39] = expo * np.uint8(ord("e"))
    out[40] = expo * np.where(x < 0, _MINUS, np.uint8(ord("+")))
    out[41] = expo * np.where(big, chars[:, 1], chars[:, 2])
    out[42] = expo * np.where(big, chars[:, 2], chars[:, 3])
    out[43] = (expo & big) * chars[:, 3]

    if not fast.all():
        # a zero, infinite or NaN row has m = 1, so x = 0, and no digits:
        # only its sign is written above
        nan = np.isnan(a)
        out[0, nan] = 0
        for word, rows in ((b"0", mag == 0), (b"inf", np.isinf(a)), (b"nan", nan)):
            out[6 : 6 + 2 * len(word) : 2, rows] = np.frombuffer(word, np.uint8)[:, None]
        exact = np.flatnonzero(~fast & np.isfinite(a) & (mag != 0))
        if len(exact):
            out[:, exact] = 0
            out[:24, exact] = _exact(a[exact])
    return out
