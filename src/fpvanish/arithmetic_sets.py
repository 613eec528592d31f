"""Arithmetic ("balanced") subsets of F_p.

A set A is r-arithmetic when

  * every a in A has a common difference b != 0 with a + i*b in A for all
    i in [-r, r]  (a is the center of a (2r+1)-term progression in A), and
  * every a outside A has a common difference b != 0 with a + i*b in A for
    all i in [1, r]  (an r-term progression starting next to a lands in A).

With r = 1 the first clause is the classical balanced-set condition and the
second is satisfied by any nonempty set.  Witnesses are re-checkable in
O(p*r) time given the table.

Note on the out-of-set clause: requiring the difference b to itself belong
to A (instead of merely b != 0) would force |A|^2 + 1 >= p, contradicting
the known Theta(log p) minimum size; the b != 0 form is what the descent
algorithm in `decomposition` actually consumes.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

import numpy as np

from . import _kernels, config
from .errors import CapExceededError, InvariantViolationError, SearchBudgetExceededError
from .fp_core import _as_prime, check_ring_cap


def floor_log2(p: int) -> int:
    return p.bit_length() - 1


def log_lower_bound(p: int) -> int:
    """Smallest admissible size: ceil(1 + log2 p)."""
    return 1 + (p - 1).bit_length()


def size_lower_bound(p: int, r: int) -> int:
    """Provable lower bound on the size of any r-arithmetic subset of F_p.

    The centered progression of any member has min(2r+1, p) distinct
    elements, and every r-arithmetic set is 1-arithmetic, so the balanced-set
    logarithmic bound applies for every r.
    """
    return max(min(2 * r + 1, p), log_lower_bound(p), 1)


@dataclass(frozen=True)
class ArithmeticCheck:
    """Outcome of a verification: witnesses on success, a failing element otherwise."""

    ok: bool
    p: int
    r: int
    witnesses: Optional[dict[int, int]] = None
    failing: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def _member_array(elements, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The members as a sorted array and as a (p,) membership mask."""
    mask = np.zeros(p, dtype=bool)
    mask[[int(x) % p for x in elements]] = True
    return np.flatnonzero(mask), mask


def _progressions_in(mask: np.ndarray, a: np.ndarray, b: np.ndarray, r: int, p: int) -> np.ndarray:
    """Where mask[(a + i*b) % p] holds for every i in [1, r], and also for
    every i in [-r, -1] when a is a member; a broadcasts to the shape of b.
    The i = 0 term is a itself, a member exactly when it is tested."""
    ok = np.ones(b.shape, dtype=bool)
    outside = ~mask[a]
    up, down = a, a
    for _ in range(r):
        up = (up + b) % p
        down = (down - b) % p
        ok &= mask[up] & (mask[down] | outside)
        if not ok.any():
            break
    return ok


# The verifier's difference array is taken in blocks of at most _BLOCK_ROWS
# elements.  Its column chunks grow from _FIRST_CELLS to _BLOCK_CELLS
# entries, so memory stays bounded at any p and a row that closes at its
# first differences costs few progression tests.
_BLOCK_ROWS = 1024
_FIRST_CELLS = 1 << 12
_BLOCK_CELLS = 1 << 16


def _least_differences(order: np.ndarray, mask: np.ndarray, a: np.ndarray, r: int, p: int) -> np.ndarray:
    """The least valid difference of each element of `a`, 0 where none is.

    Row a's differences to the members, in ascending order, start at the
    first member >= a and wrap around.  They are taken in column chunks of
    about `cells` entries over the rows still open, `cells` doubling from
    _FIRST_CELLS to _BLOCK_CELLS, and a row closes at its first valid
    difference.
    """
    n = len(order)
    least = np.zeros(len(a), dtype=np.int64)
    first = np.searchsorted(order, a)
    rows = np.arange(len(a))
    j, cells = 0, _FIRST_CELLS
    while rows.size and j < n:
        cols = np.arange(j, min(n, j + max(1, cells // rows.size)))
        ra = a[rows, None]
        diffs = (order[(first[rows, None] + cols) % n] - ra) % p
        valid = (diffs != 0) & _progressions_in(mask, ra, diffs, r, p)
        hit = valid.any(axis=1)
        least[rows[hit]] = diffs[hit, valid[hit].argmax(axis=1)]
        rows = rows[~hit]
        j, cells = j + len(cols), min(2 * cells, _BLOCK_CELLS)
    return least


def is_r_arithmetic(elements: Sequence[int] | frozenset[int], r: int, p: int) -> ArithmeticCheck:
    """Verify the r-arithmetic property, returning witnesses or a failing element.

    Both clauses put a + b in the set, so only the differences b = y - a to
    members y can be valid.  Each progression term is one lookup in the
    membership mask over an array of such differences, and the witness of a
    is the least valid one.  The elements are taken in blocks of
    _BLOCK_ROWS, and the first block with a failing element ends the check.
    """
    p = _as_prime(p)
    if not 1 <= r <= p - 1:
        raise ValueError(f"r must lie in [1, p-1], got {r}")
    order, mask = _member_array(elements, p)
    least: list[int] = []
    for start in range(0, p, _BLOCK_ROWS):
        block = _least_differences(order, mask, np.arange(start, min(p, start + _BLOCK_ROWS)), r, p)
        if not block.all():
            return ArithmeticCheck(False, p, r, failing=start + int(np.argmin(block != 0)))
        least += block.tolist()
    return ArithmeticCheck(True, p, r, witnesses=dict(enumerate(least)))


def verify_witness_table(
    elements: Sequence[int] | frozenset[int], r: int, p: int, witnesses: dict[int, int]
) -> bool:
    """Check an explicitly supplied witness table in O(p*r) time: one
    difference per element, its progression looked up as (p,) arrays."""
    if any(a not in witnesses for a in range(p)):
        return False
    b = np.array([int(witnesses[a]) % p for a in range(p)], dtype=np.int64)
    if not b.all():
        return False
    _, mask = _member_array(elements, p)
    return bool(_progressions_in(mask, np.arange(p), b, r, p).all())


@dataclass(frozen=True)
class ArithmeticSet:
    """A verified r-arithmetic set with its witness table."""

    p: int
    r: int
    elements: frozenset[int]
    witnesses: dict[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", frozenset(int(x) % self.p for x in self.elements))
        if not verify_witness_table(self.elements, self.r, self.p, self.witnesses):
            raise ValueError("witness table does not verify")

    @classmethod
    def verified(cls, elements: Sequence[int] | frozenset[int], r: int, p: int) -> "ArithmeticSet":
        check = is_r_arithmetic(elements, r, p)
        if not check:
            raise ValueError(
                f"set {sorted(set(elements))} is not {r}-arithmetic mod {p}: "
                f"element {check.failing} has no valid difference"
            )
        return cls(p, r, frozenset(elements), check.witnesses)

    @property
    def size(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list[int]:
        return sorted(self.elements)

    def in_witness(self, a: int) -> int:
        """Centered-progression difference for a member."""
        if a % self.p not in self.elements:
            raise KeyError(f"{a} is not a member")
        return self.witnesses[a % self.p]

    def out_witness(self, a: int) -> int:
        """Forward-progression difference for a non-member."""
        if a % self.p in self.elements:
            raise KeyError(f"{a} is a member")
        return self.witnesses[a % self.p]

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "size": self.size,
            "elements": self.sorted_elements(),
            "witnesses": {str(a): b for a, b in sorted(self.witnesses.items())},
        }


def _first_of_least_size(p: int, r: int, sizes: range) -> Optional[ArithmeticSet]:
    """The lexicographically first r-arithmetic set of the least size in
    `sizes` that has one, or None when none of them does.

    Each size is first decided by the scan over the supersets of {-r..r};
    only the first size with a hit is scanned again over the supersets of
    {0, 1} for its first set, which must then exist.  The {0, 1} scan is
    exact too (x -> (x - a)/(y - a) maps members a != y onto 0 and 1), so it
    alone decides a size whose supersets of {0, 1} fit in its first batch,
    and the centred scan is skipped there.
    """
    centred = range(-r, r + 1)
    for k in sizes:
        decided = comb(p - 2, k - 2) <= _kernels._FIRST_BATCH
        if not decided and _kernels.scan_combinations(p, r, k, centred) is None:
            continue
        hit = _kernels.scan_combinations(p, r, k, (0, 1))
        if hit is not None:
            return ArithmeticSet.verified([int(x) for x in hit], r, p)
        if not decided:
            raise InvariantViolationError(
                f"an {r}-arithmetic set of size {k} exists in F_{p}, but none contains {{0, 1}}"
            )
    return None


def min_arithmetic_set(p: int, r: int = 1, p_cap: Optional[int] = None) -> ArithmeticSet:
    """Smallest r-arithmetic subset of F_p by exhaustive search.

    Sizes are tried in increasing order from the provable lower bound, and
    the lexicographic order on the sorted element list breaks ties.  Two
    affine reductions cut the scan; both rest on x -> c*x + d (c != 0)
    preserving r-arithmetic sets, since it maps the progression a + i*b to
    (c*a + d) + i*(c*b) with c*b != 0.

      * Existence (the centred lemma): an r-arithmetic set of size k exists
        iff one containing {-r, ..., r} does.  Take a member a of such a set
        with its difference b: x -> (x - a)/b maps a to 0 and each a + i*b to
        i, so the image contains {-r, ..., r} and is r-arithmetic of the same
        size.  A size below s_r(p) is thus proved empty over the supersets
        of {-r..r}, C(p - 2r - 1, k - 2r - 1) of them instead of C(p - 2, k - 2).
      * The first set of the least size: x -> (x - y0)/(y1 - y0) maps a set
        with members y0 < y1 onto one containing {0, 1}, and the sets
        containing {0, 1} come first in lexicographic order, so the first of
        them that passes is the first r-arithmetic set of its size.

    Each size below s_r(p) costs one centred scan; s_r(p) itself costs a
    centred scan to its first hit and a {0, 1} scan to its first hit.
    """
    p_cap = config.MIN_ARITHMETIC_P_CAP if p_cap is None else p_cap
    if int(p) > p_cap:
        raise CapExceededError(f"exhaustive minimization capped at p <= {p_cap}, got {int(p)}")
    p = _as_prime(p)
    if not 1 <= r <= p - 1:
        raise ValueError(f"r must lie in [1, p-1], got {r}")
    found = _first_of_least_size(p, r, range(size_lower_bound(p, r), p + 1))
    if found is None:
        raise InvariantViolationError("unreachable: the whole field is always r-arithmetic")
    return found


_SMALLEST_SIZE_CACHE: dict[tuple[int, int], int] = {}


def smallest_arithmetic_size(p: int, r: int = 1) -> int:
    """s(p): exact for p within the exhaustive cap, else a verified upper bound.

    Above the cap the value comes from find_small_arithmetic_set, which is a
    conservative stand-in wherever s appears on the large side of an
    inequality.
    """
    key = (p, r)
    if key not in _SMALLEST_SIZE_CACHE:
        if p <= config.MIN_ARITHMETIC_P_CAP:
            _SMALLEST_SIZE_CACHE[key] = min_arithmetic_set(p, r).size
        else:
            if r != 1:
                raise CapExceededError(f"no verified bound available for r={r}, p={p}")
            _SMALLEST_SIZE_CACHE[key] = find_small_arithmetic_set(p).size
    return _SMALLEST_SIZE_CACHE[key]


# ---------------------------------------------------------------------------
# Randomized search for small arithmetic sets (r = 1)


def _doubling_seed(p: int, c: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Signed-doubling family {+-c*2^i}, padded with random elements to `size`."""
    vals: set[int] = set()
    x = c % p
    while len(vals) < size and x:
        vals.add(x)
        vals.add((-x) % p)
        x = (2 * x) % p
        if x == c % p:
            break
    vals.discard(0)
    pool = [v for v in range(1, p) if v not in vals]
    rng.shuffle(pool)
    out = sorted(vals)[:size]
    for v in pool:
        if len(out) >= size:
            break
        out.append(v)
    return np.array(sorted(out[:size]), dtype=np.int64)


def _toggle(members: list[int], mids: list[int], x: int, p: int) -> None:
    """Flip x into or out of the sorted list `members`, keeping mids[m] =
    #{pairs {y, z} of distinct members with y + z = 2m}.

    The midpoints (x + y) / 2 of x with the other members y are distinct, so
    each moves by one: O(|S|) per toggle.
    """
    sign = 1
    if x in members:
        members.remove(x)
        sign = -1
    half = (p + 1) // 2
    for y in members:
        mids[(x + y) * half % p] += sign
    if sign > 0:
        insort(members, x)


def _swap_violations(
    members: list[int], mids: list[int], a: int, x: int, p: int, limit: Optional[int] = None
) -> int:
    """Violations of S - a + x (a a member, x not), read off the midpoint
    counts of S = `members` without changing them.

    m is the midpoint of a and y exactly when y = 2m - a.  So the swap takes
    one from mids[m] when 2m - a is in S - a (the pair {a, y} goes) and adds
    one when 2m - x is (the pair {x, y} comes); the pair {x, a} is never
    formed.  A member with mids[m] >= 2 keeps a pair either way.  With
    `limit`, counting stops at the first violation past it, so the result
    exceeds `limit` exactly when the true count does.
    """
    others = set(members)
    others.discard(a)
    limit = p if limit is None else limit
    count = 0 if mids[x] - ((2 * x - a) % p in others) else 1
    for m in members:
        c = mids[m]
        if c <= 1 and m != a and not c - ((2 * m - a) % p in others) + ((2 * m - x) % p in others):
            count += 1
            if count > limit:
                break
    return count


def _kth_non_member(members: list[int], k: int) -> int:
    """The k-th smallest (from 0) residue outside the sorted list `members`."""
    for m in members:
        if m > k:
            break
        k += 1
    return k


def find_small_arithmetic_set(
    p: int,
    seed: int = 0,
    budget: Optional[int] = None,
    target: Optional[int] = None,
) -> ArithmeticSet:
    """A verified arithmetic (r = 1) set of size <= 2*floor(log2 p).

    Seeded randomized search (signed-doubling seeds plus swap-based local
    repair) behind a mandatory verifier gate.  For small p the search space
    is exhausted instead, so nonexistence is reported definitively.  Failure
    raises SearchBudgetExceededError; an unverified set is never returned.

    For r = 1 a member a passes exactly when it is the midpoint of two
    distinct members: y = a - b and z = a + b with b != 0 are distinct since
    p is odd, and conversely y + z = 2a with y != z gives b = z - a.  A
    non-member a passes as soon as some member y exists (b = y - a), and the
    search always holds min(target, p - 1) >= 3 elements (p >= 5 and
    target >= size_lower_bound >= 3).  So the only violations are members a
    with mids[a] == 0, where mids[m] counts the unordered pairs of distinct
    members with midpoint m.  The counts are built one element at a time by
    the toggle, which moves each count by exactly the pairs it gains or loses.
    A swap of member a for non-member x is scored before it is applied: the
    violations of S - a + x follow from mids and the midpoints of a and of x
    with the other members, and the count stops once it passes the current
    one, since such a swap is rejected.  Only an accepted swap goes through
    the toggles, so a rejected one changes nothing.  Each score is O(|S|)
    instead of an O(p^2) re-verification, and counts as one verifier call
    against `budget`.  ArithmeticSet.verified re-checks the result
    independently.

    The repair loop runs on plain ints: the members are a sorted list and the
    midpoint counts a list over F_p.  Each step touches at most |S| <= 2 log2 p
    entries, so a numpy call would cost more in call overhead than the
    arithmetic it replaces.  A random member is members[k], and a random
    non-member the k-th residue outside the sorted members.

    The midpoint counts are dense over F_p, so p is held to the ring cap
    before the primality test.
    """
    check_ring_cap(int(p), 1)
    p = _as_prime(p)
    if p < 5:
        raise ValueError(f"requires p >= 5, got {p}")
    target = 2 * floor_log2(p) if target is None else target
    budget = config.SMALL_SET_SEARCH_BUDGET if budget is None else budget
    r = 1

    lb = size_lower_bound(p, r)
    if lb > target:
        raise SearchBudgetExceededError(
            f"no arithmetic set of size <= {target} exists in F_{p}: "
            f"the lower bound is {lb}"
        )

    # Exhaust tiny search spaces outright: definitive success or failure.
    total = sum(comb(p, k) for k in range(lb, target + 1))
    if total <= 20_000:
        found = _first_of_least_size(p, r, range(lb, target + 1))
        if found is not None:
            return found
        raise SearchBudgetExceededError(
            f"no arithmetic set of size <= {target} exists in F_{p} "
            f"(search space exhausted)"
        )

    rng = np.random.default_rng(seed)
    calls = 0
    best = p + 1

    attempt = 0
    while calls < budget:
        attempt += 1
        if attempt % 2 == 1:
            c = int(rng.integers(1, p))
            start = _doubling_seed(p, c, target, rng)
        else:
            start = rng.choice(np.arange(1, p), size=min(target, p - 1), replace=False)
        members: list[int] = []
        mids = [0] * p
        for x in start:
            _toggle(members, mids, int(x), p)

        bad = [m for m in members if not mids[m]]
        calls += 1
        stall = 0
        while bad and calls < budget and stall < 6 * p:
            # Violations are members only, so a is always a member: swap it
            # out for a random non-member.
            if rng.random() < 0.8:
                # a lone violation needs no draw: integers(1) is 0 and leaves
                # the generator as it was, so the seeded results stay put
                a = bad[rng.integers(len(bad))] if len(bad) > 1 else bad[0]
            else:
                a = members[rng.integers(len(members))]
            new_elt = _kth_non_member(members, int(rng.integers(p - len(members))))
            score = _swap_violations(members, mids, a, new_elt, p, limit=len(bad))
            calls += 1
            if score <= len(bad):
                stall = 0 if score < len(bad) else stall + 1
                _toggle(members, mids, a, p)
                _toggle(members, mids, new_elt, p)
                bad = [m for m in members if not mids[m]]
            else:
                stall += 1
        if not bad:
            return ArithmeticSet.verified(members, r, p)
        best = min(best, len(bad))

    raise SearchBudgetExceededError(
        f"no verified arithmetic set of size <= {target} found in F_{p} "
        f"within {budget} verifier calls (best candidate had {best} violations)"
    )
