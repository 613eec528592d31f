"""Finite abelian groups, coset covers, and exact minimal-cover search.

Groups are direct sums of prime-power cyclic factors with elements encoded
as mixed-radix indices (coordinate 0 most significant), matching the dense
encoding used for F_p^n elsewhere.  Every set of elements (a subgroup, a
coset, a cover's union) is a |G|-bit Python int: a few bits at the search
caps (order <= 16 for phi, 32 for the subgroup lattice), and up to 10^7 bits
for a checked cover file.  Translating a mask by x rotates it block-wise, one
rotation per cyclic factor, without visiting its elements one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterator, Optional, Sequence

from . import config
from .arithmetic_sets import smallest_arithmetic_size
from .errors import CapExceededError, InvariantViolationError, PreconditionError
from .fp_core import (
    FpVector,
    _rank,
    check_ring_cap,
    enumerate_vectors,
    hyperplane_masks,
    is_irredundant_mask_cover,
    is_prime,
)


def _factorize(m: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of m in ascending prime order, by trial division; [] for m < 2."""
    out = []
    d = 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of a mask, ascending, in time linear in its width."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _low_bit(mask: int) -> int:
    """Position of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


class AbelianGroup:
    """A finite abelian group as a direct sum of prime-power cyclic factors.

    A set of elements is a |G|-bit mask.  Element x has coordinate
    (x // w_i) % d_i on factor i, where the weight w_i is the product of the
    later factors, so the +1 steps of factor i move a bit by w_i inside a
    block of d_i * w_i bits: translating a mask is one block rotation per
    cyclic factor.
    """

    def __init__(self, factors: Sequence[int]):
        fs = tuple(int(d) for d in factors)
        if not fs:
            fs = (1,)
        for d in fs:
            if d != 1 and len(_factorize(d)) != 1:
                raise ValueError(
                    f"factor {d} is not a prime power; use from_orders to split composites"
                )
        fs = tuple(d for d in fs if d > 1) or (1,)
        self.factors = fs
        self.order = 1
        weights = []
        for d in reversed(fs):
            weights.append(self.order)
            self.order *= d
        self._digits = tuple(zip(fs, reversed(weights)))
        self.full_mask = (1 << self.order) - 1
        # the mask of each factor's block starts (bits 0, B, 2B, ... for B = d * w), built on first use
        self._starts: list[Optional[int]] = [None] * len(fs)
        self._subgroups: Optional[list[Subgroup]] = None

    @classmethod
    def from_orders(cls, orders: Sequence[int]) -> "AbelianGroup":
        """Build from arbitrary cyclic orders, splitting composites by CRT."""
        fs: list[int] = []
        for m in orders:
            m = int(m)
            if m < 1:
                raise ValueError(f"cyclic order must be positive, got {m}")
            if m == 1:
                continue
            fs.extend(q**e for q, e in _factorize(m))
        return cls(sorted(fs))

    # -- element encoding ---------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.factors) if self.order > 1 else 0

    def encode(self, coords: Sequence[int]) -> int:
        if len(coords) != self.rank:
            raise ValueError(f"{self!r} takes {self.rank} coordinates, got {len(coords)}")
        if self.order == 1:
            return 0
        idx = 0
        for c, d in zip(coords, self.factors):
            idx = idx * d + (int(c) % d)
        return idx

    def decode(self, idx: int) -> tuple[int, ...]:
        if self.order == 1:
            return ()
        out = []
        for d in reversed(self.factors):
            out.append(idx % d)
            idx //= d
        return tuple(reversed(out))

    def add(self, a: int, b: int) -> int:
        out = 0
        for d, w in self._digits:
            s = a // w % d + b // w % d
            out += (s - d if s >= d else s) * w
        return out

    def elements(self) -> range:
        return range(self.order)

    def prime_divisors(self) -> list[int]:
        return sorted({_factorize(d)[0][0] for d in self.factors if d > 1})

    # -- masks ----------------------------------------------------------------

    def _block_starts(self, i: int) -> int:
        starts = self._starts[i]
        if starts is None:
            d, w = self._digits[i]
            starts, width = 1, d * w
            while width < self.order:
                starts |= starts << width
                width <<= 1
            starts &= self.full_mask
            self._starts[i] = starts
        return starts

    def translate(self, mask: int, x: int) -> int:
        """The mask of {e + x : e in mask}: per factor, rotate each block by x's coordinate."""
        for i, (d, w) in enumerate(self._digits):
            s = x // w % d
            if s:
                up = s * w
                starts = self._block_starts(i)
                keep = (starts << (d * w - up)) - starts  # the low d*w - up bits of every block
                mask = ((mask & keep) << up) | ((mask & ~keep) >> (d * w - up))
        return mask

    # -- subgroup lattice ----------------------------------------------------

    def _join(self, H: int, g: int) -> int:
        """H + <g> as a mask, doubling k = 1, 2, 4, ...: while kg is not in
        A = H + {0, g, ..., (k-1)g}, A + kg is k new cosets of H, and once
        it is, A is the join."""
        step = g
        while not (H >> step) & 1:
            H |= self.translate(H, step)
            step = self.add(step, step)
        return H

    def subgroup(self, gens: Sequence[int]) -> "Subgroup":
        return Subgroup._of_mask(self, reduce(self._join, gens, 1))

    def subgroups(self) -> list["Subgroup"]:
        """Every subgroup, by joins H + <g> from the trivial one, one g per
        coset of H (the join depends only on the coset); canonical order."""
        if self._subgroups is not None:
            return self._subgroups
        if self.order > config.GROUP_ORDER_CAP_PRUNED:
            raise CapExceededError(
                f"subgroup enumeration capped at order {config.GROUP_ORDER_CAP_PRUNED}"
            )
        full = self.full_mask
        found: dict[int, None] = {1: None}
        queue = [1]
        while queue:
            H = queue.pop()
            covered = H
            while covered != full:
                g = _low_bit(~covered)
                covered |= self.translate(H, g)
                K = self._join(H, g)
                if K not in found:
                    found[K] = None
                    queue.append(K)
        subs = [Subgroup._of_mask(self, m) for m in found]
        subs.sort(key=lambda s: (s.order, s.key))
        self._subgroups = subs
        return subs

    def maximal_subgroups(self) -> list["Subgroup"]:
        """Proper subgroups of prime index (maximal in a finite abelian group)."""
        return [H for H in self.subgroups() if H.order < self.order and is_prime(self.order // H.order)]

    def __repr__(self) -> str:
        if self.order == 1:
            return "AbelianGroup(trivial)"
        return "AbelianGroup(" + " x ".join(f"Z_{d}" for d in self.factors) + ")"


class Subgroup:
    """A subgroup given by its |G|-bit mask; canonical by that mask."""

    __slots__ = ("group", "mask", "_key", "_gens", "_mask_cache")

    def __init__(self, group: AbelianGroup, elements: frozenset[int]):
        buf = bytearray((group.order + 7) // 8)
        for e in elements:
            if not 0 <= e < group.order:
                raise ValueError(f"element {e} is not in {group!r}")
            buf[e >> 3] |= 1 << (e & 7)
        mask = int.from_bytes(buf, "little")
        if group.subgroup(elements).mask != mask:
            raise ValueError(f"the elements do not form a subgroup of {group!r}")
        self._set(group, mask)

    @classmethod
    def _of_mask(cls, group: AbelianGroup, mask: int) -> "Subgroup":
        H = cls.__new__(cls)
        H._set(group, mask)
        return H

    def _set(self, group: AbelianGroup, mask: int) -> None:
        if not mask & 1:
            raise ValueError("a subgroup must contain the identity")
        self.group = group
        self.mask = mask
        self._key: Optional[tuple[int, ...]] = None
        self._gens: Optional[tuple[int, ...]] = None
        self._mask_cache: dict[int, int] = {}

    @property
    def elements(self) -> frozenset[int]:
        return frozenset(self.key)

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    @property
    def key(self) -> tuple[int, ...]:
        if self._key is None:
            self._key = tuple(_bits(self.mask))
        return self._key

    @property
    def generators(self) -> tuple[int, ...]:
        """Greedy minimal generating set over ascending element order."""
        if self._gens is None:
            gens: list[int] = []
            span = 1
            while span != self.mask:
                e = _low_bit(self.mask & ~span)
                gens.append(e)
                span = self.group._join(span, e)
            self._gens = tuple(gens)
        return self._gens

    def index(self) -> int:
        return self.group.order // self.order

    def coset_mask(self, rep: int) -> int:
        cached = self._mask_cache.get(rep)
        if cached is None:
            cached = self._mask_cache[rep] = self.group.translate(self.mask, rep)
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.group is other.group and self.mask == other.mask

    def __hash__(self):
        return hash((id(self.group), self.mask))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, gens={list(self.generators)})"


@dataclass(frozen=True)
class CosetCover:
    """A family of cosets (H_i, x_i); covering and irredundance are queries."""

    group: AbelianGroup
    cosets: tuple[tuple[Subgroup, int], ...]

    def __post_init__(self) -> None:
        for H, x in self.cosets:
            if H.group is not self.group:
                raise ValueError("all cosets must live in the same group")
            if not 0 <= x < self.group.order:
                raise ValueError("coset representative out of range")

    @classmethod
    def _trusted(cls, group: AbelianGroup, cosets: tuple[tuple[Subgroup, int], ...]) -> "CosetCover":
        """A cover of cosets the cover engine built from the subgroups of
        `group` itself, which already hold what __post_init__ checks; skips
        that re-check."""
        C = object.__new__(cls)
        object.__setattr__(C, "group", group)
        object.__setattr__(C, "cosets", cosets)
        return C

    @property
    def size(self) -> int:
        return len(self.cosets)

    def masks(self) -> list[int]:
        return [H.coset_mask(x) for H, x in self.cosets]

    def to_dict(self) -> dict:
        g = self.group
        return {
            "factors": list(g.factors),
            "cosets": [
                {
                    "subgroup_gens": [list(g.decode(e)) for e in H.generators],
                    "rep": list(g.decode(x)),
                }
                for H, x in self.cosets
            ],
        }


def is_cover(C: CosetCover) -> bool:
    union = 0
    for m in C.masks():
        union |= m
    return union == C.group.full_mask


def is_irredundant_cover(C: CosetCover) -> bool:
    """A cover in which every coset keeps a privately covered element."""
    return is_irredundant_mask_cover(C.masks(), C.group.full_mask)


def intersection_subgroup(C: CosetCover) -> Subgroup:
    """Intersection of the subgroups; the whole group for an empty family."""
    mask = C.group.full_mask
    for H, _ in C.cosets:
        mask &= H.mask
    return Subgroup._of_mask(C.group, mask)


def check_subcover_claim(C: CosetCover) -> bool:
    """For an irredundant cover, dropping any one subgroup keeps the intersection.

    Dropping subgroup j leaves the AND of the subgroups before j with those
    after it, so one prefix and one suffix pass give every drop-one
    intersection in about 2k ANDs.
    """
    if not is_irredundant_cover(C):
        raise PreconditionError("claim applies to irredundant covers only")
    subs = [H.mask for H, _ in C.cosets]
    whole = C.group.full_mask
    prefix = [whole]  # prefix[j] is the AND of subs[:j]
    for m in subs:
        prefix.append(prefix[-1] & m)
    after = whole  # the AND of subs[j + 1:]
    for j in range(len(subs) - 1, -1, -1):
        if prefix[j] & after != prefix[-1]:
            return False
        after &= subs[j]
    return True


def _partitions(n: int) -> Iterator[list[int]]:
    """The partitions of n, each as a non-increasing list, largest first part first."""
    if n == 0:
        yield []
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or first >= rest[0]:
                yield [first] + rest


def abelian_groups_up_to(max_order: int) -> list[tuple[int, ...]]:
    """Factor tuples of every abelian group of order 2..max_order, canonically."""
    from itertools import product as iproduct

    out = []
    for order in range(2, max_order + 1):
        per_prime = [[[q**e for e in part] for part in _partitions(k)] for q, k in _factorize(order)]
        for combo in iproduct(*per_prime):
            factors = sorted(f for group in combo for f in group)
            out.append(tuple(factors))
    return out


# ---------------------------------------------------------------------------
# Cover search engine (bitmask DFS, first-uncovered branching, privacy pruning)


def _all_cosets(group: AbelianGroup, subgroup_pool: Sequence[Subgroup]) -> list[tuple[Subgroup, int, int]]:
    """Distinct cosets (subgroup, canonical rep, mask), canonically ordered.

    Each representative is the least element not yet covered by an earlier
    coset of the same subgroup, so it is its coset's minimum.
    """
    out = []
    full = group.full_mask
    for H in subgroup_pool:
        covered = 0
        while covered != full:
            rep = _low_bit(~covered)
            cmask = H.coset_mask(rep)
            covered |= cmask
            out.append((H, rep, cmask))
    out.sort(key=lambda t: (t[0].key, t[1]))
    return out


def _cover_dfs(
    masks: list[int],
    full: int,
    max_size: int,
    subgroups: Optional[list[int]],
) -> Iterator[list[int]]:
    """Enumerate irredundant covers of `full` by index sets, each exactly once.

    Every mask must be a subset of `full`.

    Candidate sets are ints: bit i of cand[e] is set when masks[i] holds
    element e.  A node branches on the lowest uncovered element e and walks
    cand[e] & ~banned from its lowest bit up.  Each chosen mask's private
    bits are kept incrementally and a pick is pruned as soon as one of them
    loses privacy (privacy is monotone: more cosets never restore it).  A
    coverage-slack bound skips candidates that leave more uncovered than
    the remaining picks can reach within the size bound.  Exclusion
    branching (Algorithm X): once a candidate has been tried it is banned
    from its later siblings and their subtrees, so each cover is reached
    only along the first path to it and no cover repeats.

    A pick that completes the cover yields at once.  With one pick left, a
    mask finishes the cover only if it holds every uncovered element, so
    the finishing candidates are the AND of cand[x] over the uncovered x
    (column intersection, as in Knuth's Dancing Links), and only those are
    tested for privacy.  A next-to-last pick that no unbanned mask can
    finish is dropped before its own privacy test.

    Without `subgroups`, one pass yields every irredundant cover of at most
    max_size masks.  With `subgroups`, masks[i] is a coset of the subgroup
    whose mask is subgroups[i], and `full` holds element 0.  Every subgroup
    mask holds element 0, so an intersection is trivial when it equals 1.
    The call is then the whole phi search: it deepens k = 1..max_size, and
    at the least k that has one it yields every size-k cover with trivial
    intersection whose lowest index holds element 0, in search order, and
    stops.  `cand` and the slack bound are built once for every k.

    - Running intersection: the AND of the chosen subgroups is carried down
      the path and tested when a pick completes the cover, and on each
      finisher before its privacy test; no callback sees the cover.
    - Translate cut: the subtree of root pick i bans every index below i,
      so only covers whose lowest index holds element 0 are visited.  Bans
      only prune, so the covers left are reached along the same paths in
      the same order.  This loses nothing for the cosets of `_all_cosets`,
      which hold every coset of each pool subgroup (the list is closed
      under translation), sorted by (subgroup key, rep) with rep 0 first.
      Suppose the first cover C with trivial intersection that
      the uncut search yields had its lowest index j at a coset y + K with
      y not in K.  Then C - y is a cover of the same size with the same
      subgroups, and it holds K itself, whose index is below j.  A cover's
      root pick is its lowest index holding element 0: below j for C - y,
      above j for C.  The search finishes each root pick's subtree before
      the next, so C - y would be yielded before C, a contradiction.  The
      first cover is never cut.
    - Root cut: the intersection of a cover whose lowest index is i holds
      AND(subgroups[i:]), so the root loop stops at the first i where that
      suffix AND is not 1.  A pool whose whole AND is not trivial (the
      maximal subgroups of a group with a nontrivial Frattini subgroup) is
      refused before any search.
    """
    cand = [0] * full.bit_length()
    for i, m in enumerate(masks):
        bit = 1 << i
        for e in _bits(m):
            cand[e] |= bit
    max_cover = max((m.bit_count() for m in masks), default=0)
    # without subgroups every mask counts as a coset of the trivial subgroup, so every cover passes
    subs = [1] * len(masks) if subgroups is None else subgroups
    chosen: list[int] = []

    def holding(rem: int, banned: int) -> int:
        """The unbanned masks that hold all of a nonzero rem, as an int of indices."""
        fits = ~banned
        while rem and fits:
            low = rem & -rem
            fits &= cand[low.bit_length() - 1]
            rem ^= low
        return fits

    def finishers(fits: int, privates: list[int], meet: int) -> list[int]:
        """The indices in fits whose subgroups cut meet to 1 and whose masks
        leave a bit of every private set uncovered."""
        out = []
        while fits:
            low = fits & -fits
            fits ^= low
            i = low.bit_length() - 1
            if meet & subs[i] != 1:
                continue
            keep = ~masks[i]
            for pv in privates:
                if not pv & keep:
                    break
            else:
                out.append(i)
        return out

    def dfs(rem: int, privates: list[int], banned: int, meet: int, slots: int, todo: int) -> Iterator[list[int]]:
        """Try each candidate in todo (the masks holding the lowest element of
        rem) with `slots` picks left after it; meet is the AND of the subgroups
        chosen so far."""
        reach = max_cover * slots
        while todo:
            low = todo & -todo
            todo ^= low
            i = low.bit_length() - 1
            keep = ~masks[i]
            rest = rem & keep
            if rest.bit_count() > reach:
                continue
            if slots == 1 and rest:
                fits = holding(rest, banned)
                if not fits:
                    banned |= low
                    continue
            new_privates = [pv & keep for pv in privates]
            if all(new_privates):
                chosen.append(i)
                new_privates.append(rem & ~keep)
                sub = meet & subs[i]
                if not rest:
                    if sub == 1:
                        yield list(chosen)
                elif slots == 1:
                    for j in finishers(fits, new_privates, sub):
                        yield chosen + [j]
                else:
                    down = cand[(rest & -rest).bit_length() - 1] & ~banned
                    yield from dfs(rest, new_privates, banned, sub, slots - 1, down)
                chosen.pop()
            banned |= low

    try:
        if subgroups is None:
            if not full:
                yield []
            elif max_size > 0:
                yield from dfs(full, [], 0, 1, max_size - 1, cand[0])
            return
        # the root cut: roots must lie below `cut`, the first index whose suffix AND is not 1
        suffix, cut = full, len(masks)
        while cut and suffix & subgroups[cut - 1] != 1:
            suffix &= subgroups[cut - 1]
            cut -= 1
        roots = cand[0] & ((1 << cut) - 1)
        for k in range(1, max_size + 1):
            found = False
            todo = roots
            while todo:
                low = todo & -todo
                todo ^= low
                for cover in dfs(full, [], low - 1, full, k - 1, low):
                    found = True
                    yield cover
            if found:
                return
    finally:
        del dfs  # dfs reaches itself through its closure cell; break that cycle


def enumerate_irredundant_covers(group: AbelianGroup, max_size: int) -> Iterator[CosetCover]:
    """All irredundant covers up to the size bound, each once.

    No cover repeats because the search bans every tried candidate from its
    later siblings (exclusion branching), not because repeats are filtered.
    """
    cosets = _all_cosets(group, group.subgroups())
    masks = [c[2] for c in cosets]
    pairs = [(H, rep) for H, rep, _ in cosets]
    for chosen in _cover_dfs(masks, group.full_mask, max_size, None):
        yield CosetCover._trusted(group, tuple(map(pairs.__getitem__, chosen)))


def _phi_search(
    group: AbelianGroup,
    subgroup_pool: Sequence[Subgroup],
    cap: int,
) -> Optional[tuple[int, CosetCover]]:
    """Smallest irredundant cover from the pool with trivial intersection, or
    None when no family of cosets from the pool qualifies."""
    if group.order > cap:
        raise CapExceededError(f"group order {group.order} exceeds cap {cap}")
    cosets = _all_cosets(group, subgroup_pool)
    masks = [c[2] for c in cosets]
    subgroups = [c[0].mask for c in cosets]
    chosen = next(_cover_dfs(masks, group.full_mask, group.order, subgroups), None)
    if chosen is None:
        return None
    return len(chosen), CosetCover._trusted(group, tuple((cosets[i][0], cosets[i][1]) for i in chosen))


def phi_exact(group: AbelianGroup, cap: Optional[int] = None) -> tuple[int, CosetCover]:
    """Minimum size of an irredundant coset cover with trivial intersection.

    One pass of the cover engine over every coset of every subgroup: it
    deepens the family size within the search, tests the running
    intersection of the chosen subgroups at each complete cover, and visits
    only the covers whose first coset in canonical order holds 0, which
    skips most translates of each cover.  The witness is the first cover of
    the least size in canonical coset order, the same one a search over
    every translate finds.
    """
    cap = config.GROUP_ORDER_CAP if cap is None else cap
    found = _phi_search(group, group.subgroups(), cap)
    if found is None:
        raise InvariantViolationError("unreachable: singleton cosets always give a valid family")
    return found


def phi_pn_maximal(p: int, n: int, cap: Optional[int] = None) -> tuple[int, CosetCover]:
    """Minimum efficient cover size of the elementary abelian group F_p^n.

    The result is checked against the arithmetic-set lower bound
    s^k >= p^n before returning.  n and p^n are checked before the group is
    built, so a p^n past `cap` never builds its p^n-bit masks.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    check_ring_cap(p, n, config.GROUP_ORDER_CAP if cap is None else cap)
    cover = find_efficient_cover(AbelianGroup((p,) * n), cap)
    if cover is None:
        raise InvariantViolationError(f"F_{p}^{n} has no efficient cover")
    k = cover.size
    s = smallest_arithmetic_size(p)
    if s**k < p**n:
        raise InvariantViolationError(
            f"efficient cover of size {k} violates the arithmetic lower bound"
        )
    return k, cover


def find_efficient_cover(group: AbelianGroup, cap: Optional[int] = None) -> Optional[CosetCover]:
    """A smallest efficient cover, the first in canonical coset order; None when none exists."""
    cap = config.GROUP_ORDER_CAP if cap is None else cap
    if group.order > cap:
        raise CapExceededError(f"group order {group.order} exceeds cap {cap}")
    if group.order == 1:
        return None
    found = _phi_search(group, group.maximal_subgroups(), cap)
    return None if found is None else found[1]


# ---------------------------------------------------------------------------
# Affine hyperplane covers of F_p^n and the twisted-multiset correspondence


@dataclass(frozen=True)
class HyperplaneCoverInstance:
    """Affine hyperplanes H_i = {x : <x, v_i> = -t_i} with nonzero normals.

    The sign convention matches the twisted binomial factors: the factor
    (1 - w^t g^v) has Fourier zero set exactly {x : <x, v> = -t}, so the
    correspondence with a twisted multiset is the identity on (v, t) pairs.
    `cap` bounds the p^n points that the bitmask checks enumerate.
    """

    p: int
    n: int
    normals: tuple[FpVector, ...]
    offsets: tuple[int, ...]
    cap: Optional[int] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.normals) != len(self.offsets):
            raise ValueError("one offset per normal required")
        offs = tuple(int(t) % self.p for t in self.offsets)
        object.__setattr__(self, "offsets", offs)
        for v in self.normals:
            if v.p != self.p or v.n != self.n:
                raise ValueError("normal lives in the wrong space")
            if v.is_zero():
                raise ValueError("hyperplane normals must be nonzero")

    @property
    def size(self) -> int:
        return len(self.normals)

    def masks(self) -> list[int]:
        normals = [v.coords for v in self.normals]
        return hyperplane_masks(self.p, self.n, normals, [-t for t in self.offsets], self.cap)

    def is_irredundant_cover(self) -> bool:
        return is_irredundant_mask_cover(self.masks(), (1 << self.p**self.n) - 1)

    def codimension(self) -> int:
        """Rank of the normals: the codimension of the directions' intersection."""
        return _rank(self.p, self.n, [v.coords for v in self.normals])


def check_codim_bound(H: HyperplaneCoverInstance, s: int) -> bool:
    """codim of the linear intersection <= k log s / log p, exactly in integers.

    Precondition: the affine family is an irredundant cover (verified).
    The linear intersection of {x : <x,v_i> = -t_i}'s directions has
    codimension equal to the rank of the normals, so the check is
    p^codim <= s^k.
    """
    if not H.is_irredundant_cover():
        raise PreconditionError("hyperplane family is not an irredundant cover")
    if s < 2:
        raise ValueError("arithmetic-set size must be at least 2")
    return H.p ** H.codimension() <= s**H.size


def enumerate_irredundant_hyperplane_covers(
    p: int, n: int, max_size: Optional[int] = None
) -> Iterator[HyperplaneCoverInstance]:
    """All irredundant affine hyperplane covers of F_p^n, each once.

    Normals are normalized projectively (first nonzero coordinate 1), so
    each geometric hyperplane appears once in the pool.
    """
    normals = []
    for v in enumerate_vectors(p, n):
        if v.is_zero():
            continue
        lead = next(c for c in v.coords if c != 0)
        if lead == 1:
            normals.append(v)
    pool = [(v, t) for v in normals for t in range(p)]
    masks = hyperplane_masks(p, n, [v.coords for v, _ in pool], [-t for _, t in pool])
    full = (1 << p**n) - 1
    cap = max_size if max_size is not None else len(pool)
    for chosen in _cover_dfs(masks, full, cap, None):
        yield HyperplaneCoverInstance(
            p,
            n,
            tuple(pool[i][0] for i in chosen),
            tuple(pool[i][1] for i in chosen),
        )
