"""Hot numeric kernels, vectorised with numpy.

Group-ring tables index F_p^n along one group axis by the canonical
mixed-radix encoding (coordinate 0 most significant), so "subtract the
constant vector v" is a cyclic shift by v over the (p,)*n view of that axis.
_rolled splits the axis into its first n // 2 coordinates and the rest and
moves each half whose part of v is nonzero by one gather (ndarray.take), so
a shift costs at most two passes over the table.  The gather indexes depend
only on p and a half's part of v, never on the table's shape: a
one-coordinate half slices a view out of one array per prime, and a larger
half's index is cached, a half over F_p^k having only p^k shifts.  F_p
tables are that axis alone; fp_binomial_power takes and returns them as
residues in [0, p) at the table's own signed integer width.  Z[w] tables
are coefficient-major, of shape (p-1, p^n, *batch): the power basis
w^0..w^(p-2) comes first, so multiplying by w^t moves whole planes.  The
ring kernels never widen a table: they compute at the dtype they are given,
and the caller picks a width its values cannot leave
(group_ring._coef_dtype).  The arithmetic-set kernels check a batch of
subset masks of F_p against the verifier's progression conditions, taking
differences only to members and testing each progression as a subset of the
row's bit words; the exhaustive scan tries only the supersets of a fixed
base, {0, 1} for the lexicographically first set of a size and {-r..r} to
decide whether one exists, since affine maps preserve arithmetic sets.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import chain, combinations, islice
from math import prod

import numpy as np


@lru_cache(maxsize=2)
def _wrapped(q: int) -> np.ndarray:
    """arange(q) twice over: its slice [q - c : 2q - c] is y -> (y - c) mod q.

    One array per modulus serves every shift of a one-coordinate group as a
    view.  Two moduli are kept, 16q bytes each (16 MB at q near 10^6), so a
    p-entry index per shift is never held.
    """
    ramp = np.arange(q)
    return np.concatenate((ramp, ramp))


def _half_index(dims: tuple[int, ...], c: tuple[int, ...]) -> np.ndarray | None:
    """y -> y - c over a group of two or more coordinates, mixed radix; None
    when c is 0 mod dims."""
    c = [ci % q for ci, q in zip(c, dims)]
    if not any(c):
        return None
    idx = np.zeros(1, dtype=np.intp)
    for q, ci in zip(dims, c):
        idx = (idx[:, None] * q + _wrapped(q)[q - ci : 2 * q - ci]).ravel()
    return idx


# Indexes of halves of at most 4096 elements are kept, 512 of them (16 MB at
# most); a larger half's index is rebuilt per shift at a small fraction of
# the cost of the gather it serves, over a table of at least 4096 * p cells.
# A half over F_p^k has only p^k shifts, so the descent's tables of a few
# thousand cells nearly always hit.
_cached_half_index = lru_cache(maxsize=512)(_half_index)


def _shift_index(dims: tuple[int, ...], c, size: int) -> np.ndarray | None:
    """The gather index of y -> y - c over the group `dims` of `size`
    elements; None when c is 0 mod dims."""
    if len(dims) == 1:
        c = c[0] % size
        return _wrapped(size)[size - c : 2 * size - c] if c else None
    return (_cached_half_index if size <= 4096 else _half_index)(dims, tuple(c))


def _rolled(table: np.ndarray, dims: tuple[int, ...], v: tuple[int, ...], axis: int = 0) -> np.ndarray:
    """Table of y -> table[y - v] for the group on axis `axis`; other axes are untouched.

    Always a fresh array (callers write into it).  The group axis is viewed
    as (prod dims[:h], prod dims[h:]) with h = n // 2, and each half whose
    part of v is nonzero mod p moves by one ndarray.take: at most two gathers
    a shift, whatever its number of nonzero coordinates.
    """
    if len(v) != len(dims):
        raise ValueError(f"shift has {len(v)} coordinates, the group has {len(dims)}")
    h = len(dims) // 2
    m_lo, m_hi = prod(dims[:h]), prod(dims[h:])
    lo = _shift_index(dims[:h], v[:h], m_lo)
    hi = _shift_index(dims[h:], v[h:], m_hi)
    if lo is None and hi is None:
        return table.copy()
    shape = table.shape
    out = table.reshape(shape[:axis] + (m_lo, m_hi) + shape[axis + 1 :])
    if lo is not None:
        out = out.take(lo, axis=axis)
    if hi is not None:
        out = out.take(hi, axis=axis + 1)
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# F_p group-ring binomial multiply: table <- (table - shift_v(table))^r mod p


def fp_binomial_power(table: np.ndarray, dims: tuple[int, ...], v: tuple[int, ...], r: int, p: int) -> np.ndarray:
    """Multiply a dense F_p[F_p^n] table by (1 - g^v)^r. Returns a new table.

    `table` must hold residues in [0, p) at a signed integer width that
    holds p: then cur - shifted lies in (-p, p), and adding p where the sign
    bit is set (x >> (bits - 1) is -1 there, 0 elsewhere) folds it back into
    [0, p), several times cheaper than np.remainder on mixed signs.  The
    kernel's outputs are residues again, at the input's dtype.
    """
    sign = 8 * table.itemsize - 1
    cur = table
    for _ in range(r):
        shifted = _rolled(cur, dims, v)
        np.subtract(cur, shifted, out=shifted)
        shifted += (shifted >> sign) & p
        cur = shifted
    return cur


# ---------------------------------------------------------------------------
# Cyclotomic-coefficient binomial multiply.
#
# Axis 0 holds elements of Z[w], w a primitive p-th root of unity, in the
# power basis w^0..w^(p-2).  Multiplying c by w^t (0 < t < p) moves plane j
# to plane j + t mod p; the plane c[p-1-t] that lands on w^(p-1) is
# eliminated via w^(p-1) = -(1 + w + ... + w^(p-2)), i.e. subtracted from
# every plane, and plane t - 1 is left as minus it.


def lambda_shift_rows(rows: np.ndarray, t: int, p: int) -> np.ndarray:
    """Multiply Z[w] elements (power basis along axis 0) by w^t. Returns a new array."""
    t = t % p
    if t == 0:
        return rows.copy()
    m = p - 1
    top = rows[m - t : m - t + 1]
    out = np.empty_like(rows)
    np.subtract(rows[: m - t], top, out=out[t:])
    np.subtract(rows[m - t + 1 :], top, out=out[: t - 1])
    np.negative(top, out=out[t - 1 : t])
    return out


def cyc_binomial_power(
    table: np.ndarray, dims: tuple[int, ...], v: tuple[int, ...], t: int, r: int, p: int
) -> np.ndarray:
    """Multiply a dense Z[w][F_p^n] table of shape (p-1, p^n, *batch) by (1 - w^t g^v)^r."""
    cur = table
    for _ in range(r):
        shifted = _rolled(cur, dims, v, axis=1)
        if t % p:
            shifted = lambda_shift_rows(shifted, t, p)
        cur = np.subtract(cur, shifted, out=shifted)
    return cur


# ---------------------------------------------------------------------------
# Reachability expansion for the coefficient-descent relation search:
# new[y] = OR over e in [-r, r] of reach[y - e*step].


def reach_expand(
    reach: np.ndarray, dims: tuple[int, ...], step: tuple[int, ...], r: int, p: int
) -> np.ndarray:
    """Expand a uint8 reachability table by all multiples e*step, |e| <= r."""
    acc = reach.copy()
    for shift in (step, tuple((-c) % p for c in step)):
        cur = reach
        for _ in range(r):
            cur = _rolled(cur, dims, shift)
            acc |= cur
    return acc


# ---------------------------------------------------------------------------
# Arithmetic-set verification.
#
# A mask over F_p passes iff
#   every a with mask[a]: some b != 0 has mask[(a+i*b) % p] for all |i| <= r,
#   every a without:      some b != 0 has mask[(a+i*b) % p] for all 1 <= i <= r.
# Both clauses put a + b in the set, so b ranges over y - a for members
# y != a, and a + t*b = (1-t)*a + t*y.  A member a passes iff some other
# member y has all of {(1-t)*a + t*y : t in [-r, r], t != 0, 1} in the set; a
# non-member a iff some member y has all of {(1-t)*a + t*y : 2 <= t <= r},
# which for r = 1 is empty.  Sets are bit words over F_p, so each test is a
# subset test, (need & have) == need, per word: a row with k members costs
# k*(k-1) word gathers for its members and, at r >= 2 and only if they all
# pass, (p-k)*k for the rest, against p*(p-1)*(3r+1) element gathers for
# trying every element with every difference.


def _word(p: int) -> np.dtype:
    """The word of a set over F_p: the narrowest of 8, 16, 32 and 64 bits that
    holds p bits, else 64 bits, ceil(p / 64) words a set, so that the gathers
    and subset tests move as few bytes as the field needs."""
    return np.dtype(f"<u{min(8, 1 << (-(-p // 8) - 1).bit_length())}")


def _bit_words(masks: np.ndarray) -> np.ndarray:
    """Bool rows (B, p) as words (W, B): bit x % w of word x // w, w bits a word."""
    p = masks.shape[1]
    word = _word(p)
    packed = np.zeros((len(masks), -(-p // (8 * word.itemsize)) * word.itemsize), dtype=np.uint8)
    packed[:, : -(-p // 8)] = np.packbits(masks, axis=1, bitorder="little")
    return packed.view(word).T


def _progression_words(p: int, ts) -> np.ndarray:
    """Words (W, p*p) of {(1-t)*a + t*y mod p : t in ts} at column a*p + y."""
    word = _word(p)
    bits = 8 * word.itemsize
    words = np.zeros((-(-p // bits), p * p), dtype=word)
    x = np.arange(p)
    for t in ts:
        pos = (((1 - t) * x)[:, None] + t * x).ravel() % p
        words[pos // bits, np.arange(p * p)] |= word.type(1) << (pos % bits).astype(word)
    return words


def _pairs_covered(need: np.ndarray, have: np.ndarray, a: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """(m, k, B) bool: row s holds the set need[:, a[i, s]*p + y[j, s]].

    `a` (m, B) and `y` (k, B) list elements column-wise, one column per row,
    so the lanes are the fast axis and the reductions run over whole planes.
    """
    cols = (a * p)[:, None, :] + y[None, :, :]
    ok = np.ones(cols.shape, dtype=bool)
    for want, got in zip(need, have):
        sub = want[cols]
        ok &= (sub & got) == sub
    return ok


def _member_words(p: int, r: int) -> np.ndarray:
    """Words of the progressions a member is tested on, t in [-r, r] but not
    0 or 1.  They depend only on p and r, so a scan builds them once for all
    its batches; the non-member words are built only for a batch with a row
    whose members all pass, which is rare."""
    return _progression_words(p, [*range(-r, 0), *range(2, r + 1)])


def _rows_ok(masks: np.ndarray, k: int, r: int, p: int, words: np.ndarray) -> np.ndarray:
    """Verdicts for bool rows (B, p) that all have k >= 2 members."""
    rows = len(masks)
    have = _bit_words(masks)
    members = np.ascontiguousarray(np.nonzero(masks)[1].reshape(rows, k).T)
    hit = _pairs_covered(words, have, members, members, p)
    hit.reshape(k * k, rows)[:: k + 1] = False  # y = a is no difference
    ok = hit.any(axis=1).all(axis=0)
    live = np.nonzero(ok)[0]  # only rows whose members all pass test the rest
    if r >= 2 and live.size:
        outside = np.ascontiguousarray(np.nonzero(~masks[live])[1].reshape(live.size, p - k).T)
        hit = _pairs_covered(_progression_words(p, range(2, r + 1)), have[:, live], outside, members[:, live], p)
        ok[live] = hit.any(axis=1).all(axis=0)
    return ok


def masks_arithmetic_ok(masks: np.ndarray, r: int, p: int, words: np.ndarray | None = None) -> np.ndarray:
    """Batch verdicts (uint8) for candidate subset masks of shape (B, p).

    Rows are verified in groups of equal popcount (a scan batch is one
    group).  No set of fewer than two members passes: a lone member has no
    other member to take a difference to.  `words` is _member_words(p, r),
    built here when not given.
    """
    if words is None:
        words = _member_words(p, r)
    masks = masks.astype(bool)
    sizes = np.count_nonzero(masks, axis=1)
    out = np.zeros(len(masks), dtype=np.uint8)
    for k in np.flatnonzero(np.bincount(sizes)[2:]) + 2:
        rows = np.nonzero(sizes == k)[0]
        out[rows] = _rows_ok(masks[rows], int(k), r, p, words)
    return out


_FIRST_BATCH = 32
_SCAN_BATCH = 2048


def scan_combinations(p: int, r: int, k: int, base: Iterable[int]):
    """First size-k superset of `base` in F_p passing the verifier, or None.

    The sets base | T are tried with T in combinations of the other residues,
    of size k - |base|, in lexicographic order.  Batches grow from
    _FIRST_BATCH rows to _SCAN_BATCH, so a scan that hits early verifies few
    rows and a long one pays the per-batch overhead on full batches.

    Affine maps x -> c*x + d (c != 0) take progressions to progressions, so
    they preserve r-arithmetic sets, and two bases are exact:

      * {0, 1}: a passing set with members y0 < y1 maps onto one containing
        {0, 1} by x -> (x - y0)/(y1 - y0), and the sets containing {0, 1}
        come first in lexicographic order, so the hit is the first passing
        size-k set;
      * {-r, ..., r}: a member a of a passing set with difference b maps to 0
        by x -> (x - a)/b, and its progression to {-r, ..., r}, so a hit
        exists exactly when some size-k set passes.

    No set of size < 2 passes.
    """
    base = sorted({int(x) % p for x in base})
    if not max(2, len(base)) <= k <= p:
        return None
    words = _member_words(p, r)
    gen = combinations([x for x in range(p) if x not in base], k - len(base))
    size = _FIRST_BATCH
    while True:
        block = list(islice(gen, size))
        if not block:
            return None
        size = min(2 * size, _SCAN_BATCH)
        arr = np.fromiter(chain.from_iterable(block), np.int64, len(block) * (k - len(base))).reshape(len(block), -1)
        masks = np.zeros((len(block), p), dtype=np.uint8)
        masks[:, base] = 1
        masks[np.arange(len(block))[:, None], arr] = 1
        hits = np.nonzero(masks_arithmetic_ok(masks, r, p, words))[0]
        if hits.size:
            return np.nonzero(masks[hits[0]])[0]
