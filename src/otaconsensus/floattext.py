"""Doubles as exactly the text of Python's '%.17g': one at a time
(fmt_float), a block at a time in numpy arrays (float_fields), and the rows
of trajectory.csv built from such blocks (trajectory_rows).

17 significant digits are always enough to read back the same double, so
identical invocations produce identical files.
"""
from __future__ import annotations

import math

import numpy as np


def fmt_float(x: float) -> str:
    """A finite double as 17 significant digits ('%.17g'): always enough to
    round-trip it exactly, though not always the shortest such decimal
    (0.1 gives '0.10000000000000001')."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    return format(x, ".17g")


# '%.17g' of a double x with 1e-4 <= |x| < 1e4 is fixed notation. Its 17
# significant digits are N = round(|x| * 10**s), s = 16 - X, where X is the
# decade of |x| (10**X <= |x| < 10**(X + 1)) and N lies in [1e16, 1e17). 10**s
# is an exact double for every such s, and Dekker's error-free product splits
# |x| * 10**s into p + e exactly; p is then an even integer, so N = p +
# rint(e) rounds half to even as Python does. N never rounds up to 1e17, into
# the next decade: the double nearest each power of ten from 1e-4 to 1e4 is
# not below it, so every double below it falls short by at least half an ulp
# (about 1e-16 relative), and 17 digits round up only within 5e-18. Every
# other value is formatted by fmt_float.
#
# A field is 7 little-endian 4-byte words, NUL where '%.17g' writes no byte:
#   word 0       a free byte, the sign, NUL, the thousands digit
#   word 1       hundreds, tens and ones digits, '.'
#   words 2-6    20 fraction places: up to 3 leading zeros, then the digits
# so the digits go out four at a time through a table of ASCII groups.

FIELD = 28  # bytes per real

_WORD = np.dtype("<u4")


def _group_tables():
    """For each 4-digit group g: its ASCII digits, and 0xFF on its digits up
    to its last nonzero one (none for g = 0), each as one word. Built a
    column at a time in 8 and 16 bits, so the import's temporaries stay small."""
    digits, kept = np.empty((10_000, 4), np.uint8), np.empty((10_000, 4), np.uint8)
    g, seen = np.arange(10_000, dtype=np.uint16), np.zeros(10_000, bool)
    for i in range(3, -1, -1):
        digits[:, i] = g % 10 + ord("0")
        seen |= g % 10 != 0
        kept[:, i] = seen * 0xFF
        g //= 10
    return digits.view(_WORD).ravel(), kept.view(_WORD).ravel()


_WORDS, _KEPT = _group_tables()
# indexed by the decade X = -4 .. 3 itself (X < 0 wraps to the end): the
# integer places of words 0 and 1, and the leading-zero places of word 2
_X = (np.arange(8)[:, None] + 4) % 8 - 4
_INT_KEPT = (np.arange(4) >= 3 - np.maximum(_X, 0)) * 0xFF
_INT_MASKS = np.c_[np.zeros((8, 3)), _INT_KEPT, np.zeros((8, 1))].astype(np.uint8).view(_WORD).T.copy()
_LEAD_MASKS = np.c_[(np.arange(3) < -1 - _X) * 0xFF, np.full((8, 1), 0xFF)].astype(np.uint8).view(_WORD).ravel()
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 10**0 .. 10**22, each exact
_POW10_INT = np.cumprod(np.r_[1, np.full(17, 10)])  # 10**0 .. 10**17 as int64


def _split(a):
    """Dekker's split: a == hi + lo, each half with at most 26 significant bits."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a, s):
    """p + e == a * 10**s exactly, with p = fl(a * 10**s) (Dekker's TwoProduct)."""
    p = a * _POW10[s]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[s], _POW10_LO[s]
    return p, a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _groups(ints, count):
    """Non-negative ints below 10**(4 * count) in base 10**4, most
    significant group first: (count, len)."""
    g = np.empty((count, ints.size), np.int64)
    for i in range(count - 1, -1, -1):
        q = ints // 10_000
        g[i] = ints - q * 10_000
        ints = q
    return g


def _digits17(a):
    """(N, X): the 17 significant digits of each 1e-4 <= a < 1e4 as '%.17g'
    rounds them, and the decade they start in."""
    X = np.floor(np.log10(a)).astype(np.int64)
    p, e = _times_pow10(a, 16 - X)
    # log10 may miss the decade by one next to a power of ten: test a * 10**s exactly
    if ((p <= 1e16) | (p >= 1e17)).any():
        X += (p > 1e17) | ((p == 1e17) & (e >= 0))
        X -= (p < 1e16) | ((p == 1e16) & (e < 0))
        p, e = _times_pow10(a, 16 - X)
    return p.astype(np.int64) + np.rint(e).astype(np.int64), X


def _fixed_fields(a, negative, out):
    """'%.17g' of 1e-4 <= a < 1e4, signed by `negative`, into out's (len, 7) words."""
    N, X = _digits17(a)
    # the integer part I, and the fraction Q over 20 places: X < 0 leaves
    # I = 0 and Q = N, 17 digits after 3 places for leading zeros
    I, Q = np.divmod(N, _POW10_INT[np.minimum(16 - X, 17)])
    Q *= _POW10_INT[np.maximum(X, -1) + 1]
    digits = _WORDS[I]  # I < 10**4: thousands, hundreds, tens, ones
    out[:, 0] = ((digits << 24) & _INT_MASKS[0][X]) | (negative * (ord("-") << 8))
    out[:, 1] = ((digits >> 8) & _INT_MASKS[1][X]) | ((Q != 0) * (ord(".") << 24))
    g = _groups(Q, 5)
    nonzero = g != 0
    later = np.zeros_like(nonzero)  # a nonzero group keeps every group before it whole
    for i in range(3, -1, -1):
        np.logical_or(later[i + 1], nonzero[i + 1], out=later[i])
    kept = _KEPT[g]
    kept[later] = 0xFFFFFFFF
    kept[0] &= _LEAD_MASKS[X]
    kept &= _WORDS[g]
    out[:, 2:] = kept.T


def float_fields(values) -> np.ndarray:
    """Each finite double of `values`, flattened, as a FIELD-byte row that
    reads fmt_float(x) once its NUL bytes are dropped. The first byte is
    always NUL, free for a separator."""
    v = np.ravel(np.asarray(values, dtype=np.float64))
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e4)
    out = np.empty((v.size, FIELD // 4), _WORD)
    _fixed_fields(np.where(fixed, a, 1.0), v < 0, out)
    out = out.view(np.uint8)
    if not fixed.all():
        others = np.array([fmt_float(x) for x in v[~fixed].tolist()], dtype=f"S{FIELD - 1}")
        out[~fixed] = np.c_[np.zeros(others.size, np.uint8), others.view(np.uint8).reshape(-1, FIELD - 1)]
    return out


def _int_words(ints: np.ndarray, lead: bytes = b"") -> np.ndarray:
    """Non-negative integers, each after `lead`, as NUL-padded ASCII in whole
    little-endian words: (len, words)."""
    digits = len(str(int(ints.max())))
    text = np.zeros((ints.size, -(-(len(lead) + digits) // 4) * 4), np.uint8)
    text[:, : len(lead)] = np.frombuffer(lead, np.uint8)
    text[:, len(lead) : len(lead) + digits] = ints.astype(f"S{digits}").view(np.uint8).reshape(-1, digits)
    return text.view(_WORD)


def node_words(n: int) -> np.ndarray:
    """The ',j' of every node's trajectory.csv rows, for trajectory_rows."""
    return _int_words(np.arange(n), b",")


def trajectory_rows(first_step: int, nodes: np.ndarray, *columns) -> bytes:
    """The trajectory.csv rows of consecutive steps first_step, ...: `nodes`
    from node_words(n), then one (steps, n) array per column after step
    and node. Rows are step-major."""
    steps, n = columns[0].shape
    ks = _int_words(np.arange(first_step, first_step + steps))
    head = ks.shape[1] + nodes.shape[1]
    width = FIELD // 4 * len(columns)
    cells = float_fields(np.stack(columns, axis=2)).view(_WORD).reshape(steps, n, width)
    rows = np.empty((steps, n, head + width + 1), _WORD)
    rows[:, :, : ks.shape[1]] = ks[:, None]
    rows[:, :, ks.shape[1] : head] = nodes
    cells[:, :, :: FIELD // 4] |= ord(",")  # into each field's free first byte
    rows[:, :, head : head + width] = cells
    rows[:, :, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0")
