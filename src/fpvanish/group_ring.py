"""Vanishing verdicts for binomial products in F_p[F_p^n] and Z[w][F_p^n].

A product is a raw numpy table over F_p^n in the canonical encoding from
fp_core: over F_p a (p^n,) table of residues, over Z[w],
w = e^(2*pi*i/p), the kernels' coefficient-major (p-1, p^n) table of
integer coordinates in the power basis w^0..w^(p-2), with w^(p-1) reduced
via 1 + w + ... + w^(p-1) = 0.  A product vanishes iff its table is all
zero, so zero tests are exact, which is what makes vanishing checkable at
all: floating point cannot certify zero.  Every table is built at the
narrowest integer width its arithmetic cannot leave (_coef_dtype), so no
value ever wraps and the narrow tables are as exact as Python integers.

Vanishing products are built factor by factor; multiplying by (1 - w^t g^v)
is one shifted subtraction over the dense table, so a product over a multiset
V costs O(|V| r p^n) instead of general convolution.  Greedy irredundant
extraction and the irredundance check share their partial products by
divide and conquer: m entries cost at most m*ceil(log2 m) binomial
multiplies, not the m^2 of rebuilding the product for every removal.

Over F_p a product of more than n(p-1) binomials (1 - g^v) is zero, so
_fp_product returns zero without multiplying once r|V| > n(p-1).  Proof:
F_p[F_p^n] = F_p[y_1..y_n]/(y_j^p) with y_j = g^(e_j) - 1; every 1 - g^v lies
in the augmentation ideal I = (y_1..y_n), and every monomial of degree
> n(p-1) has some exponent >= p, so I^(n(p-1)+1) = 0.  The bound is tight
(each e_i taken p-1 times gives y_1^(p-1)...y_n^(p-1) up to sign); it is
Jennings' nilpotency index of I for elementary abelian p-groups (Jennings,
Trans. AMS 50, 1941) and behind Olson's D(Z_p^n) = n(p-1) + 1 (Olson,
J. Number Theory 1, 1969).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import _kernels, config
from .errors import CapExceededError, InvariantViolationError, PreconditionError
from .fp_core import (
    FpMultiset,
    check_ring_cap,
    coords_array,
    coords_matrix,
    hyperplane_masks,
)

TwistAssignment = tuple[int, ...]


def normalize_twists(V: FpMultiset, t: Sequence[int]) -> TwistAssignment:
    """Validate a per-entry twist assignment (total on V) and reduce mod p."""
    t = tuple(int(x) % V.p for x in t)
    if len(t) != V.size:
        raise ValueError(f"twist assignment must be total on V: need {V.size} values, got {len(t)}")
    return t


def _check_exponent(r: int, p: int) -> None:
    """The products (1 - w^t g^v)^r here take exponents 1 <= r <= p - 1."""
    if not 1 <= r <= p - 1:
        raise ValueError(f"exponent r must lie in [1, p-1], got r={r} for p={p}")


def _coef_dtype(reach: int):
    """The dtype of an exact table whose values, and every intermediate its
    arithmetic makes, stay within `reach` in absolute value: the narrowest of
    int8, int16, int32 and int64 that holds `reach`, or exact Python integers
    (object) once `reach` gets to config.INT64_SAFE_BOUND.  Every dense F_p
    and Z[w] table takes its dtype from here, so no value can wrap around.

    An F_p table holds residues in [0, p), and the binomial kernel's
    cur - shifted lies in (-p, p): reach p.  A Z[w] row that is a signed sum
    of k roots of unity has canonical entries of absolute value at most k,
    since each root's power-basis form has entries in {-1, 0, 1};
    (1 - w^t g^v)^r turns k into at most 2^r * k, so the product over V has
    coefficients within 2^(r|V|).  The binomial kernel's intermediates reach
    3 * 2^(r|V|), hence the margin: reach 3 * 2^(r|V|), which is int8 while
    r|V| <= 5, int16 while r|V| <= 13, int32 while r|V| <= 29 and int64
    while r|V| <= 60.
    """
    if reach >= config.INT64_SAFE_BOUND:
        return object
    return next(w for w in (np.int8, np.int16, np.int32, np.int64) if reach <= np.iinfo(w).max)


# ---------------------------------------------------------------------------
# F_p coefficients


def _times_binomials(
    table: np.ndarray, entries: Sequence[tuple[int, ...]], r: int, p: int, n: int
) -> np.ndarray:
    """Multiply a raw table by (1 - g^v)^r for each coordinate tuple v; stop at zero."""
    dims = (p,) * n
    for v in entries:
        table = _kernels.fp_binomial_power(table, dims, v, r, p)
        if not table.any():
            break
    return table


def _fp_unit(p: int, n: int, cap: Optional[int] = None) -> np.ndarray:
    """The unit of F_p[F_p^n] as a (p^n,) table at the width for p; `cap` bounds p^n."""
    table = np.zeros(check_ring_cap(p, n, cap), dtype=_coef_dtype(p))
    table[0] = 1
    return table


def _fp_product(
    entries: Sequence[tuple[int, ...]], r: int, p: int, n: int, cap: Optional[int] = None
) -> np.ndarray:
    """The product over coordinate tuples of (1 - g^v)^r in F_p[F_p^n]; stops at zero.

    Past the nilpotency bound, r * len(entries) > n(p - 1), the product is
    zero and no binomial is multiplied.
    """
    _check_exponent(r, p)
    table = _fp_unit(p, n, cap)
    if r * len(entries) > n * (p - 1):
        table[0] = 0  # the unit's one nonzero cell
        return table
    return _times_binomials(table, entries, r, p, n)


def is_fp_vanishing(V: FpMultiset, r: int = 1, cap: Optional[int] = None) -> bool:
    """True iff the product over V of (1 - g^v)^r is the zero element."""
    return not _fp_product([v.coords for v in V.entries], r, V.p, V.n, cap).any()


def _greedy_irredundant_indices(
    entries: Sequence[tuple[int, ...]], r: int, p: int, n: int, cap: Optional[int] = None
) -> list[int]:
    """One-pass greedy removal of coordinate tuples in index order; returns the kept indices.

    Entry i is dropped iff its context, the product over the kept entries
    before i and every entry after i, is zero.  One pass suffices: supersets
    of vanishing multisets vanish, so an entry that could not be removed
    never becomes removable after later removals.

    The contexts come from a divide-and-conquer pass, `_greedy_solve`.
    Each recursion level costs at most m binomial multiplies, so the pass
    takes at most m*ceil(log2 m) of them and holds ceil(log2 m) + 1 tables.
    """
    keep = [False] * len(entries)
    if entries:
        _greedy_solve(entries, r, p, n, keep, 0, len(entries), _fp_unit(p, n, cap))
    return [i for i, k in enumerate(keep) if k]


def _greedy_solve(
    entries: Sequence[tuple[int, ...]],
    r: int,
    p: int,
    n: int,
    keep: list[bool],
    lo: int,
    hi: int,
    ctx: np.ndarray,
) -> None:
    """Decide keep[lo:hi] given ctx = (kept entries of [0, lo)) * (all entries of [hi, m)).

    The left half adds all of [mid, hi) to ctx, and the right half, once the
    left is decided, adds the kept entries of [lo, mid).  A zero context drops
    its whole range.
    """
    if not ctx.any():
        return
    if hi - lo == 1:
        keep[lo] = True
        return
    mid = (lo + hi) // 2
    _greedy_solve(entries, r, p, n, keep, lo, mid, _times_binomials(ctx, entries[mid:hi], r, p, n))
    kept_left = [entries[i] for i in range(lo, mid) if keep[i]]
    _greedy_solve(entries, r, p, n, keep, mid, hi, _times_binomials(ctx, kept_left, r, p, n))


def is_fp_irredundant(V: FpMultiset, r: int = 1) -> bool:
    """Vanishing, and removing any single entry breaks vanishing.

    With V vanishing, the greedy keeps every entry iff no V minus one entry
    vanishes, so the check costs |V| + |V|*ceil(log2 |V|) binomial multiplies.
    """
    if not is_fp_vanishing(V, r):
        return False
    return len(_greedy_irredundant_indices([v.coords for v in V.entries], r, V.p, V.n)) == V.size


def extract_irredundant_fp(V: FpMultiset, r: int = 1, cap: Optional[int] = None) -> FpMultiset:
    """A minimal vanishing sub-multiset of V, by greedy removal.

    Entries are first put in canonical (ascending coordinate) order, then
    removed greedily in that order whenever removal preserves vanishing.
    `cap` bounds the ring size p^n (default `config.RING_SIZE_CAP`).
    """
    if not is_fp_vanishing(V, r, cap):
        raise PreconditionError("input multiset is not vanishing; nothing to extract")
    ordered = sorted(V.entries, key=lambda v: v.coords)
    kept = _greedy_irredundant_indices([v.coords for v in ordered], r, V.p, V.n, cap)
    return FpMultiset(V.p, V.n, tuple(ordered[i] for i in kept))


# ---------------------------------------------------------------------------
# Z[w] coefficients


def binomial_product_cyc(
    V: FpMultiset, twists: Sequence[int], r: int = 1, cap: Optional[int] = None
) -> np.ndarray:
    """The product over V of (1 - w^(t_v) g^v)^r, exactly over Z[w]; stops at zero.

    Computed at the `_coef_dtype` width for 3 * 2^(r|V|) and returned as the
    kernels' coefficient-major (p-1, p^n) table, int64 or, when that reach
    does not fit int64, exact Python ints.
    """
    _check_exponent(r, V.p)
    t = normalize_twists(V, twists)
    p, dims = V.p, (V.p,) * V.n
    table = np.zeros((p - 1, check_ring_cap(p, V.n, cap)), dtype=_coef_dtype(3 * 2 ** (r * V.size)))
    table[0, 0] = 1
    for v, tv in zip(V.entries, t):
        table = _kernels.cyc_binomial_power(table, dims, v.coords, tv, r, p)
        if not table.any():
            break
    return table if table.dtype == object else table.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# Complex vanishing: exact product search and the hyperplane-cover oracle.
#
# The Fourier transform of (1 - w^t g^v) vanishes exactly on the affine
# hyperplane {x : <x, v> = -t}; a product of such factors vanishes iff the
# corresponding hyperplanes cover all of F_p^n.  Both routes below are exact.


def _check_twist_cap(p: int, m: int, cap: Optional[int]) -> int:
    cap = config.TWIST_SEARCH_CAP if cap is None else cap
    total = p**m
    if total > cap:
        raise CapExceededError(f"twist search space p^|V| = {p}^{m} = {total} exceeds cap {cap}")
    return total


def twist_from_index(p: int, m: int, idx: int) -> TwistAssignment:
    out = []
    for _ in range(m):
        out.append(idx % p)
        idx //= p
    return tuple(reversed(out))


def _check_cover_work(p: int, n: int, total: int) -> int:
    """Cap the p^|V| * p^n covering-table work of the cover oracles; returns p^n."""
    size = check_ring_cap(p, n)
    work = total * size
    if work > config.RING_SIZE_CAP:
        raise CapExceededError(
            f"covering table updates p^|V| * p^n = {total} * {size} = {work} "
            f"exceed cap {config.RING_SIZE_CAP}"
        )
    return size


def cover_twist_verdicts(V: FpMultiset, cap: Optional[int] = None) -> np.ndarray:
    """Boolean verdicts over all p^|V| twists: does the hyperplane family cover?

    Twist index encoding matches twist_from_index (entry 0 most significant),
    so position of the first True is the lexicographically least witness.
    A (p^n, p^i) table of the points the first i hyperplanes miss grows by
    one twist axis per entry: missed[x, t_0..t_i] = missed[x, t_0..t_(i-1)]
    and <x, v_i> != -t_i.
    """
    p, n, m = V.p, V.n, V.size
    total = _check_twist_cap(p, m, cap)
    if m == 0:
        return np.zeros(1, dtype=bool)
    size = _check_cover_work(p, n, total)
    ips = (coords_matrix(p, n) @ coords_array(V).T) % p  # (p^n, m)
    misses = ips[:, :, None] != (-np.arange(p)) % p  # (p^n, m, p): x off hyperplane (v_i, t)
    missed = np.ones((size, 1), dtype=bool)
    for i in range(m):
        missed = (missed[:, :, None] & misses[:, None, i, :]).reshape(size, -1)
    return ~missed.any(axis=0)


def product_twist_verdicts(V: FpMultiset, r: int = 1, cap: Optional[int] = None) -> np.ndarray:
    """Boolean verdicts over all p^|V| twists via exact cyclotomic products.

    The products are grown from the last entry to the first: a
    coefficient-major (p-1, p^n, p^k) table holds the product of the last k
    entries under each of their twists, and the next entry multiplies it
    once per twist t, as a new most significant twist axis (so entry 0 is
    most significant, as in twist_from_index).  Entry 0's p products are
    reduced to their verdicts one at a time, so the (p-1, p^n, p^|V|) table
    of all products never exists; the cap still counts its cells.  The
    tables hold the `_coef_dtype` width for 3 * 2^(r|V|): int8 while
    r|V| <= 5.
    """
    _check_exponent(r, V.p)
    p, n, m = V.p, V.n, V.size
    total = _check_twist_cap(p, m, cap)
    size = check_ring_cap(p, n)
    if m == 0:
        return np.zeros(1, dtype=bool)
    cells = total * size * (p - 1)
    if cells > config.RING_SIZE_CAP:
        raise CapExceededError(
            f"batched product tables p^|V| * p^n * (p-1) = {total} * {size} * {p - 1} = {cells} "
            f"cells exceed cap {config.RING_SIZE_CAP}"
        )
    table = np.zeros((p - 1, size, 1), dtype=_coef_dtype(3 * 2 ** (r * m)))
    table[0, 0] = 1
    dims = (p,) * n
    for v in reversed(V.entries[1:]):
        table = np.concatenate(
            [_kernels.cyc_binomial_power(table, dims, v.coords, t, r, p) for t in range(p)], axis=2
        )
    v = V.entries[0]
    return np.concatenate(
        [
            ~(_kernels.cyc_binomial_power(table, dims, v.coords, t, r, p) != 0).any(axis=(0, 1))
            for t in range(p)
        ]
    )


def is_c_vanishing(V: FpMultiset, r: int = 1, cap: Optional[int] = None) -> Optional[TwistAssignment]:
    """Least twist assignment making the product vanish over Z[w], or None.

    Found by the hyperplane-cover oracle over the p^|V| twists (bounded by
    `cap`) and re-certified by an exact cyclotomic product under the default
    ring cap.
    """
    _check_exponent(r, V.p)
    if V.size == 0:
        return None
    hits = np.nonzero(cover_twist_verdicts(V, cap))[0]
    if hits.size == 0:
        return None
    witness = twist_from_index(V.p, V.size, int(hits[0]))
    if binomial_product_cyc(V, witness, r).any():
        raise InvariantViolationError("cover-oracle witness failed exact-product certification")
    return witness


def is_c_irredundant(V: FpMultiset, r: int = 1, cap: Optional[int] = None) -> Optional[TwistAssignment]:
    """Least twist making the product vanish while no proper subset does.

    Equivalent formulation: the twisted hyperplane family covers F_p^n and
    every hyperplane covers a point no other member covers.  Note this is a
    per-witness condition, not "no proper subset is vanishing".

    A depth-first search over t_0, t_1, ... in lexicographic order keeps the
    points covered at least once (`seen`) and at least twice (`twice`).  It
    drops a branch when the points still uncovered outnumber what the
    remaining entries' largest hyperplanes can add, or when a chosen
    hyperplane has no private point left; private points only shrink as
    entries are added, so both cuts are exact.
    """
    _check_exponent(r, V.p)
    p, n, m = V.p, V.n, V.size
    if m == 0:
        return None
    _check_cover_work(p, n, _check_twist_cap(p, m, cap))
    # by_twist[i][t]: the points x with <x, v_i> = -t.
    masks = hyperplane_masks(p, n, np.repeat(coords_array(V), p, axis=0), [-t for t in range(p)] * m)
    by_twist = [masks[i * p : (i + 1) * p] for i in range(m)]
    full = (1 << p**n) - 1
    # reach[i]: the most points entries i..m-1 can still cover
    reach = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        reach[i] = reach[i + 1] + max(mk.bit_count() for mk in by_twist[i])
    chosen: list[int] = []

    def search(i: int, seen: int, twice: int) -> Optional[TwistAssignment]:
        if (full & ~seen).bit_count() > reach[i]:
            return None
        if i == m:
            return ()
        for t, mk in enumerate(by_twist[i]):
            more = twice | (seen & mk)
            chosen.append(mk)
            if all(c & ~more for c in chosen):
                rest = search(i + 1, seen | mk, more)
                if rest is not None:
                    return (t,) + rest
            chosen.pop()
        return None

    try:
        return search(0, 0, 0)
    finally:
        del search  # search reaches itself through its closure cell; break that cycle
