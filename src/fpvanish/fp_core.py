"""Exact arithmetic over F_p: vectors, multisets, and elimination mod p.

Everything here is immutable after construction and safe to share across
threads.  Dense tables elsewhere in the package are indexed by the canonical
mixed-radix encoding fixed in this module: coordinate 0 is most significant,
so index(v) = sum(v[i] * p**(n-1-i)).  FpVector validates a point of F_p^n
at the API boundary; arithmetic on vectors runs on plain coordinate tuples
(`_combination`, `solve_combination`, and `_rank` on `rref_mod_p`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

import numpy as np

from . import config
from .errors import CapExceededError, InvariantViolationError

T = TypeVar("T")


# Miller-Rabin with the first thirteen prime bases has no false positive below
# this bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic primality: Miller-Rabin below 3.3 * 10^24; above, trial
    division confirms what Miller-Rabin does not reject."""
    if not _probable_prime(p):
        return False
    if p < _MILLER_RABIN_EXACT_BELOW:
        return True
    d = 43
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _probable_prime(p: int) -> bool:
    """False only when p < 2 or p is proven composite by the thirteen bases
    (a factor among them or a failed Miller-Rabin round); exact below
    3.3 * 10^24."""
    if p < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if p % q == 0:
            return p == q
    if p < 43 * 43:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return all(_strong_probable_prime(p, a, d, s) for a in _MILLER_RABIN_BASES)


def _strong_probable_prime(p: int, a: int, d: int, s: int) -> bool:
    """Miller-Rabin round for odd p with p - 1 = d * 2^s, d odd."""
    x = pow(a, d, p)
    if x == 1 or x == p - 1:
        return True
    for _ in range(s - 1):
        x = x * x % p
        if x == p - 1:
            return True
    return False


@dataclass(frozen=True)
class PrimeModulus:
    """A verified prime modulus."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValueError(f"modulus must be a prime >= 2, got {self.p!r}")

    def __int__(self) -> int:
        return self.p


def _as_prime(p) -> int:
    if isinstance(p, PrimeModulus):
        return p.p
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"modulus must be a prime >= 2, got {p}")
    return p


def check_ring_cap(p: int, n: int, cap: Optional[int] = None) -> int:
    """Return p**n, raising CapExceededError above the configured cap.

    As p >= 2, every n > cap.bit_length() is past the cap; p**n is not built then.
    The message names p**n only when it has no more bits than p and the cap
    together: a longer p**n can have more digits than Python converts to a
    string.
    """
    cap = config.RING_SIZE_CAP if cap is None else cap
    if n > cap.bit_length():
        raise CapExceededError(f"p^n = {p}^{n} exceeds cap {cap}")
    size = p**n
    if size > cap:
        shown = f" = {size}" if size.bit_length() <= p.bit_length() + cap.bit_length() else ""
        raise CapExceededError(f"p^n = {p}^{n}{shown} exceeds cap {cap}")
    return size


@dataclass(frozen=True)
class FpVector:
    """An immutable, validated vector in F_p^n."""

    p: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        p = _as_prime(self.p)
        object.__setattr__(self, "p", p)
        c = tuple(int(x) for x in self.coords)
        if any(x < 0 or x >= p for x in c):
            raise ValueError(f"coordinates must lie in [0, {p - 1}], got {c}")
        object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return len(self.coords)

    @classmethod
    def from_index(cls, p: int, n: int, index: int) -> "FpVector":
        coords = []
        for _ in range(n):
            coords.append(index % p)
            index //= p
        return cls(p, tuple(reversed(coords)))

    @property
    def index(self) -> int:
        """Canonical mixed-radix index, coordinate 0 most significant."""
        out = 0
        for x in self.coords:
            out = out * self.p + x
        return out

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def __repr__(self) -> str:
        return f"FpVector(p={self.p}, {list(self.coords)})"


@dataclass(frozen=True)
class FpMultiset:
    """An ordered multiset of F_p^n vectors; multiplicity by repetition.

    Entry order is significant: per-entry data (scalings, twists, relation
    coefficients) align with positions, and repeated vectors are distinct
    entries.
    """

    p: int
    n: int
    entries: tuple[FpVector, ...]

    def __post_init__(self) -> None:
        p = _as_prime(self.p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", int(self.n))
        ent = tuple(self.entries)
        for v in ent:
            if not isinstance(v, FpVector) or v.p != p or v.n != self.n:
                raise ValueError(f"entry {v!r} does not live in F_{p}^{self.n}")
        object.__setattr__(self, "entries", ent)

    @classmethod
    def from_coords(cls, p: int, vectors: Iterable[Sequence[int]], n: Optional[int] = None) -> "FpMultiset":
        p = _as_prime(p)
        vecs = [FpVector(p, tuple(int(x) % p for x in v)) for v in vectors]
        if n is None:
            if not vecs:
                raise ValueError("ambient dimension required for an empty multiset")
            n = vecs[0].n
        return cls(p, n, tuple(vecs))

    @property
    def size(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[FpVector]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> FpVector:
        return self.entries[i]

    def to_dict(self) -> dict:
        return {"p": self.p, "n": self.n, "vectors": [list(v.coords) for v in self.entries]}

    def __repr__(self) -> str:
        return f"FpMultiset(p={self.p}, n={self.n}, {[list(v.coords) for v in self.entries]})"


def coords_array(V: FpMultiset) -> np.ndarray:
    """Entries as an int64 array of shape (len(V), n)."""
    if not V.entries:
        return np.zeros((0, V.n), dtype=np.int64)
    return np.array([v.coords for v in V.entries], dtype=np.int64)


def rref_mod_p(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p with deterministic pivoting.

    Pivots are chosen as the first row with a nonzero entry in the lowest
    unresolved column, so the output basis is reproducible.
    Returns (rref rows without zero rows, pivot column list).
    """
    m = np.array(rows, dtype=np.int64) % p
    if m.ndim != 2:
        m = m.reshape(len(rows), -1)
    nrows, ncols = m.shape
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        sel = None
        for row in range(rank, nrows):
            if m[row, col] % p != 0:
                sel = row
                break
        if sel is None:
            continue
        if sel != rank:
            m[[rank, sel]] = m[[sel, rank]]
        inv = pow(int(m[rank, col]), -1, p)
        m[rank] = (m[rank] * inv) % p
        for row in range(nrows):
            if row != rank and m[row, col] % p != 0:
                m[row] = (m[row] - m[row, col] * m[rank]) % p
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return m[:rank] % p, pivots


def _rank(p: int, n: int, rows: Sequence[Sequence[int]]) -> int:
    """Rank mod p of the coordinate rows, each of length n; [] has rank 0."""
    return len(rref_mod_p(np.array(rows, dtype=np.int64).reshape(len(rows), n), p)[1])


def span_dimension(V: FpMultiset) -> int:
    """Rank of the multiset's support, by elimination mod p."""
    return _rank(V.p, V.n, [v.coords for v in V.entries])


def _combination(p: int, n: int, rows: Sequence[Sequence[int]], coeffs: Sequence[int]) -> tuple[int, ...]:
    """sum(c_i * rows[i]) mod p as a coordinate tuple in F_p^n, one coefficient per row."""
    acc = [0] * n
    for c, row in zip(coeffs, rows, strict=True):
        if c:
            for i, x in enumerate(row):
                acc[i] += c * x
    return tuple(a % p for a in acc)


def solve_combination(
    p: int, rows: Sequence[Sequence[int]], x: tuple[int, ...]
) -> Optional[tuple[int, ...]]:
    """Coefficients c with sum(c_i * rows[i]) = x mod p, or None if x is not in the span.

    Rows and x are coordinate tuples of one length n.  Deterministic:
    elimination with canonical pivoting; coefficients of rows unused by the
    pivot structure are 0.  Coefficients that fail the final re-check raise
    InvariantViolationError.
    """
    n, m = len(x), len(rows)
    # Solve M^T c = x where the columns of M^T are the rows, on [M^T | x].
    aug = np.array([*rows, x], dtype=np.int64).reshape(m + 1, n).T
    rref, pivots = rref_mod_p(aug, p)
    # A pivot in the right-hand column: x is not in the span.
    if pivots and pivots[-1] == m:
        return None
    coeffs = [0] * m
    for row, col in enumerate(pivots):
        coeffs[col] = int(rref[row, m])
    # Re-verify (cheap): a mismatch is an elimination bug, not a verdict.
    if _combination(p, n, rows, coeffs) != x:
        raise InvariantViolationError(f"solved coefficients {coeffs} fail re-verification for {x}")
    return tuple(coeffs)


def scale_multiset(V: FpMultiset, scalars: Sequence[int]) -> FpMultiset:
    """Entrywise scaling {a_v * v}; every scalar must be nonzero mod p."""
    if len(scalars) != V.size:
        raise ValueError(f"need {V.size} scalars, got {len(scalars)}")
    out = []
    for a, v in zip(scalars, V.entries):
        a = int(a) % V.p
        if a == 0:
            raise ValueError("scaling coefficients must be nonzero mod p")
        out.append(FpVector(V.p, tuple(a * x % V.p for x in v.coords)))
    return FpMultiset(V.p, V.n, tuple(out))


def enumerate_vectors(p: int, n: int, cap: Optional[int] = None) -> Iterator[FpVector]:
    """All p^n vectors in canonical index order (lexicographic on coords)."""
    p = _as_prime(p)
    check_ring_cap(p, n, cap)
    for coords in product(range(p), repeat=n):
        yield FpVector(p, coords)


def coords_matrix(p: int, n: int, cap: Optional[int] = None) -> np.ndarray:
    """All p^n coordinate rows (int64, shape (p^n, n)) in canonical order."""
    size = check_ring_cap(p, n, cap)
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    dims = (p,) * n
    unr = np.unravel_index(np.arange(size), dims)
    return np.stack(unr, axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# Bitmask covers: bit i of a mask is the point with canonical index i.


def hyperplane_masks(
    p: int,
    n: int,
    normals: Sequence[Sequence[int]],
    values: Sequence[int],
    cap: Optional[int] = None,
) -> list[int]:
    """Bitmask of each affine hyperplane {x in F_p^n : <x, normals[i]> = values[i]}."""
    normals = np.asarray(normals, dtype=np.int64).reshape(len(values), n)
    hits = (coords_matrix(p, n, cap) @ normals.T) % p == np.asarray(values, dtype=np.int64) % p
    packed = np.packbits(hits.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def is_irredundant_mask_cover(masks: Sequence[int], full: int) -> bool:
    """The masks cover `full` and each one covers a bit no other mask covers.

    One pass collects the bits seen at least once and at least twice; a
    mask's private bits are those outside the seen-twice set.
    """
    seen = twice = 0
    for m in masks:
        twice |= seen & m
        seen |= m
    return seen == full and all(m & ~twice for m in masks)


# ---------------------------------------------------------------------------
# One-pass greedy irredundance, for F_p products and for covers alike.


def _greedy_keep(
    m: int, ctx: T, extend: Callable[[T, Sequence[int]], T], dead: Callable[[T], bool]
) -> list[int]:
    """Kept indices, ascending, of the one-pass greedy removal of items 0..m-1.

    Item i is dropped iff its context, the kept items before i folded with
    every item after i, is dead.  `ctx` is the empty context, `extend(ctx,
    indices)` folds those items into a context, and `dead` must be monotone:
    folding more items into a dead context leaves it dead.  Then one pass
    suffices, as an item that could not be dropped never becomes droppable
    after later drops.  Over F_p the fold is a binomial product and dead is
    zero; for a cover the fold is OR and dead is the full mask.

    The contexts come from a divide-and-conquer pass, `_greedy_split`.  Each
    recursion level folds at most m items, so the pass folds at most
    m*ceil(log2 m) of them and holds ceil(log2 m) + 1 contexts, not the m^2
    of rebuilding the context for every item.
    """
    keep = [False] * m
    if m:
        _greedy_split(keep, 0, m, ctx, extend, dead)
    return [i for i, k in enumerate(keep) if k]


def _greedy_split(keep: list[bool], lo: int, hi: int, ctx: T, extend, dead) -> None:
    """Decide keep[lo:hi] given ctx = (kept items of [0, lo)) folded with (all items of [hi, m)).

    The left half folds in all of [mid, hi), and the right half, once the
    left is decided, the kept items of [lo, mid).  A dead context drops its
    whole range.
    """
    if dead(ctx):
        return
    if hi - lo == 1:
        keep[lo] = True
        return
    mid = (lo + hi) // 2
    _greedy_split(keep, lo, mid, extend(ctx, range(mid, hi)), extend, dead)
    _greedy_split(keep, mid, hi, extend(ctx, [i for i in range(lo, mid) if keep[i]]), extend, dead)
