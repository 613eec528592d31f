"""Finite abelian groups, coset covers, and exact minimal-cover search.

Groups are direct sums of prime-power cyclic factors with elements encoded
as mixed-radix indices (coordinate 0 most significant), matching the dense
encoding used for F_p^n elsewhere.  Cover computations are bitmask-based:
groups at the searchable cap (order <= 32) fit in one machine word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from . import config
from .arithmetic_sets import smallest_arithmetic_size
from .errors import CapExceededError, InvariantViolationError, PreconditionError
from .fp_core import (
    FpMultiset,
    FpVector,
    enumerate_vectors,
    hyperplane_masks,
    is_irredundant_mask_cover,
    is_prime,
    shrink_mask_cover,
    span_dimension,
)
from .group_ring import TwistAssignment, normalize_twists


def _prime_power_split(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            q = 1
            while m % d == 0:
                m //= d
                q *= d
            out.append(q)
        d += 1
    if m > 1:
        out.append(m)
    return out


def _is_prime_power(m: int) -> bool:
    return len(_prime_power_split(m)) == 1 and m >= 2


class AbelianGroup:
    """A finite abelian group as a direct sum of prime-power cyclic factors."""

    def __init__(self, factors: Sequence[int]):
        fs = tuple(int(d) for d in factors)
        if not fs:
            fs = (1,)
        for d in fs:
            if d != 1 and not _is_prime_power(d):
                raise ValueError(
                    f"factor {d} is not a prime power; use from_orders to split composites"
                )
        fs = tuple(d for d in fs if d > 1) or (1,)
        self.factors = fs
        self.order = 1
        for d in fs:
            self.order *= d
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
            fs.extend(_prime_power_split(m))
        return cls(sorted(fs))

    # -- element encoding ---------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.factors) if self.order > 1 else 0

    def encode(self, coords: Sequence[int]) -> int:
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
        ca, cb = self.decode(a), self.decode(b)
        return self.encode(tuple(x + y for x, y in zip(ca, cb)))

    def neg(self, a: int) -> int:
        return self.encode(tuple(-x for x in self.decode(a)))

    def elements(self) -> range:
        return range(self.order)

    def prime_divisors(self) -> list[int]:
        ps = set()
        for d in self.factors:
            if d > 1:
                ps.add(_smallest_prime(d))
        return sorted(ps)

    # -- subgroup lattice ----------------------------------------------------

    def _close(self, gens: Sequence[int]) -> frozenset[int]:
        elems = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.add(x, g)
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
        return frozenset(elems)

    def subgroup(self, gens: Sequence[int]) -> "Subgroup":
        return Subgroup(self, self._close(list(gens)))

    def subgroups(self) -> list["Subgroup"]:
        """Every subgroup, by closure of generator extensions; canonical order."""
        if self._subgroups is not None:
            return self._subgroups
        if self.order > config.GROUP_ORDER_CAP_PRUNED:
            raise CapExceededError(
                f"subgroup enumeration capped at order {config.GROUP_ORDER_CAP_PRUNED}"
            )
        seen: dict[frozenset[int], None] = {frozenset({0}): None}
        queue = [frozenset({0})]
        while queue:
            H = queue.pop()
            for g in self.elements():
                if g in H:
                    continue
                K = self._close(list(H) + [g])
                if K not in seen:
                    seen[K] = None
                    queue.append(K)
        subs = [Subgroup(self, els) for els in seen]
        subs.sort(key=lambda s: (s.order, s.key))
        self._subgroups = subs
        return subs

    def maximal_subgroups(self) -> list["Subgroup"]:
        """Proper subgroups of prime index (maximal in a finite abelian group)."""
        return [H for H in self.subgroups() if H.order < self.order and is_prime(self.order // H.order)]

    def frattini(self) -> "Subgroup":
        """Intersection of all maximal subgroups (the whole group if none)."""
        maxes = self.maximal_subgroups()
        if not maxes:
            return Subgroup(self, frozenset(self.elements()))
        elems = frozenset(self.elements())
        for H in maxes:
            elems &= H.elements
        return Subgroup(self, elems)

    def __repr__(self) -> str:
        if self.order == 1:
            return "AbelianGroup(trivial)"
        return "AbelianGroup(" + " x ".join(f"Z_{d}" for d in self.factors) + ")"


def _smallest_prime(q: int) -> int:
    d = 2
    while d * d <= q:
        if q % d == 0:
            return d
        d += 1
    return q


class Subgroup:
    """A subgroup given by its (cached) element set; canonical by that set."""

    __slots__ = ("group", "elements", "_gens", "_mask_cache")

    def __init__(self, group: AbelianGroup, elements: frozenset[int]):
        self.group = group
        self.elements = frozenset(elements)
        if 0 not in self.elements:
            raise ValueError("a subgroup must contain the identity")
        self._gens: Optional[tuple[int, ...]] = None
        self._mask_cache: dict[int, int] = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))

    @property
    def generators(self) -> tuple[int, ...]:
        """Greedy minimal generating set over ascending element order."""
        if self._gens is None:
            gens: list[int] = []
            span = frozenset({0})
            for e in self.key:
                if e not in span:
                    gens.append(e)
                    span = self.group._close(gens)
            self._gens = tuple(gens)
        return self._gens

    def index(self) -> int:
        return self.group.order // self.order

    def coset_elements(self, rep: int) -> frozenset[int]:
        return frozenset(self.group.add(h, rep) for h in self.elements)

    def coset_mask(self, rep: int) -> int:
        cached = self._mask_cache.get(rep)
        if cached is None:
            cached = 0
            for e in self.coset_elements(rep):
                cached |= 1 << e
            self._mask_cache[rep] = cached
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.group is other.group and self.elements == other.elements

    def __hash__(self):
        return hash((id(self.group), self.elements))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, gens={list(self.generators)})"


def index(group: AbelianGroup, H: Subgroup) -> int:
    """The index |A : H|."""
    return group.order // H.order


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

    @property
    def size(self) -> int:
        return len(self.cosets)

    def masks(self) -> list[int]:
        return [H.coset_mask(x) for H, x in self.cosets]

    def canonical_keys(self) -> list[tuple[tuple[int, ...], int]]:
        out = []
        for H, x in self.cosets:
            out.append((H.key, min(H.coset_elements(x))))
        return out

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

    @classmethod
    def from_dict(cls, data: dict) -> "CosetCover":
        g = AbelianGroup.from_orders(data["factors"])
        cosets = []
        for item in data["cosets"]:
            gens = [g.encode(c) for c in item["subgroup_gens"]]
            rep = g.encode(item["rep"])
            cosets.append((g.subgroup(gens), rep))
        return cls(g, tuple(cosets))


def _full_mask(group: AbelianGroup) -> int:
    return (1 << group.order) - 1


def is_cover(C: CosetCover) -> bool:
    union = 0
    for m in C.masks():
        union |= m
    return union == _full_mask(C.group)


def is_irredundant_cover(C: CosetCover) -> bool:
    """A cover in which every coset keeps a privately covered element."""
    return is_irredundant_mask_cover(C.masks(), _full_mask(C.group))


def shrink_to_irredundant(C: CosetCover) -> CosetCover:
    """Greedy one-pass removal in canonical coset order; preserves covering."""
    if not is_cover(C):
        raise PreconditionError("input family is not a cover")
    keys = C.canonical_keys()
    order = sorted(range(C.size), key=keys.__getitem__)
    kept = shrink_mask_cover(C.masks(), _full_mask(C.group), order)
    return CosetCover(C.group, tuple(C.cosets[j] for j in kept))


def intersection_subgroup(C: CosetCover) -> Subgroup:
    """Intersection of the subgroups; the whole group for an empty family."""
    elems = frozenset(C.group.elements())
    for H, _ in C.cosets:
        elems &= H.elements
    return Subgroup(C.group, elems)


def check_subcover_claim(C: CosetCover, assume_irredundant: bool = False) -> bool:
    """For an irredundant cover, dropping any one subgroup keeps the intersection.

    assume_irredundant skips the precondition re-check for covers produced
    by this module's enumerators, which only emit irredundant families.
    """
    if not assume_irredundant and not is_irredundant_cover(C):
        raise PreconditionError("claim applies to irredundant covers only")
    total = intersection_subgroup(C).elements
    for j in range(C.size):
        others = CosetCover(C.group, tuple(c for i, c in enumerate(C.cosets) if i != j))
        if intersection_subgroup(others).elements != total:
            return False
    return True


def is_efficient_cover(C: CosetCover) -> bool:
    """Irredundant, trivial subgroup intersection, all subgroups maximal."""
    if not is_irredundant_cover(C):
        return False
    if intersection_subgroup(C).order != 1:
        return False
    max_keys = {H.key for H in C.group.maximal_subgroups()}
    return all(H.key in max_keys for H, _ in C.cosets)


def frattini(group: AbelianGroup) -> Subgroup:
    return group.frattini()


def abelian_groups_up_to(max_order: int) -> list[tuple[int, ...]]:
    """Factor tuples of every abelian group of order 2..max_order, canonically."""

    def partitions(n: int) -> Iterator[list[int]]:
        if n == 0:
            yield []
            return
        for first in range(n, 0, -1):
            for rest in partitions(n - first):
                if not rest or first >= rest[0]:
                    yield [first] + rest

    from itertools import product as iproduct

    out = []
    for order in range(2, max_order + 1):
        split: dict[int, int] = {}
        m = order
        d = 2
        while d * d <= m:
            while m % d == 0:
                split[d] = split.get(d, 0) + 1
                m //= d
            d += 1
        if m > 1:
            split[m] = split.get(m, 0) + 1
        per_prime = []
        for prime, exp in sorted(split.items()):
            per_prime.append([[prime**e for e in part] for part in partitions(exp)])
        for combo in iproduct(*per_prime):
            factors = sorted(f for group in combo for f in group)
            out.append(tuple(factors))
    return out


# ---------------------------------------------------------------------------
# Cover search engine (bitmask DFS, first-uncovered branching, privacy pruning)


def _all_cosets(group: AbelianGroup, subgroup_pool: Sequence[Subgroup]) -> list[tuple[Subgroup, int, int]]:
    """Distinct cosets (subgroup, canonical rep, mask), canonically ordered."""
    out = []
    for H in subgroup_pool:
        seen = set()
        for rep in group.elements():
            cmask = H.coset_mask(rep)
            if cmask in seen:
                continue
            seen.add(cmask)
            out.append((H, min(H.coset_elements(rep)), cmask))
    out.sort(key=lambda t: (t[0].key, t[1]))
    return out


def _cover_dfs(
    masks: list[int],
    full: int,
    max_size: int,
    accept: Optional[Callable[[list[int]], bool]],
) -> Iterator[list[int]]:
    """Enumerate irredundant covers by index sets, deduplicated.

    Branches on the lowest uncovered element; keeps each chosen mask's
    private bits incrementally and prunes as soon as one loses privacy
    (privacy is monotone: more cosets never restore it).  A coverage-slack
    bound prunes branches that cannot finish within max_size.
    """
    order_bits = full.bit_length()
    candidates: list[list[int]] = [[] for _ in range(order_bits)]
    for i, m in enumerate(masks):
        for e in range(order_bits):
            if (m >> e) & 1:
                candidates[e].append(i)
    max_cover = max((m.bit_count() for m in masks), default=0)
    seen: set[frozenset[int]] = set()
    chosen: list[int] = []

    def dfs(union: int, privates: list[int]) -> Iterator[list[int]]:
        if union == full:
            key = frozenset(chosen)
            if key not in seen:
                seen.add(key)
                if accept is None or accept(chosen):
                    yield list(chosen)
            return
        slots = max_size - len(chosen)
        if slots <= 0:
            return
        rem = ~union & full
        if rem.bit_count() > max_cover * slots:
            return
        e = (rem & -rem).bit_length() - 1
        for i in candidates[e]:
            m = masks[i]
            new_privates = [pv & ~m for pv in privates]
            if all(new_privates):
                new_privates.append(m & ~union)
                chosen.append(i)
                yield from dfs(union | m, new_privates)
                chosen.pop()

    yield from dfs(0, [])


def enumerate_irredundant_covers(
    group: AbelianGroup, max_size: int, subgroup_pool: Optional[Sequence[Subgroup]] = None
) -> Iterator[CosetCover]:
    """All irredundant covers up to the size bound, deduplicated."""
    pool = group.subgroups() if subgroup_pool is None else list(subgroup_pool)
    cosets = _all_cosets(group, pool)
    masks = [c[2] for c in cosets]
    for chosen in _cover_dfs(masks, _full_mask(group), max_size, None):
        yield CosetCover(group, tuple((cosets[i][0], cosets[i][1]) for i in chosen))


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
    full = _full_mask(group)

    def accept(chosen: list[int]) -> bool:
        elems = frozenset(group.elements())
        for i in chosen:
            elems &= cosets[i][0].elements
        return len(elems) == 1

    for k in range(1, group.order + 1):
        for chosen in _cover_dfs(masks, full, k, accept):
            cover = CosetCover(group, tuple((cosets[i][0], cosets[i][1]) for i in chosen))
            return len(chosen), cover
    return None


def phi_exact(group: AbelianGroup, cap: Optional[int] = None) -> tuple[int, CosetCover]:
    """Minimum size of an irredundant coset cover with trivial intersection.

    Iterative deepening over the family size with first-uncovered-element
    branching and privacy pruning; deterministic first witness in canonical
    coset order.
    """
    cap = config.GROUP_ORDER_CAP if cap is None else cap
    found = _phi_search(group, group.subgroups(), cap)
    if found is None:
        raise InvariantViolationError("unreachable: singleton cosets always give a valid family")
    return found


def phi_pn_maximal(p: int, n: int, cap: Optional[int] = None) -> tuple[int, CosetCover]:
    """Minimum efficient cover size of the elementary abelian group F_p^n.

    The result is checked against the arithmetic-set lower bound
    s^k >= p^n before returning.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    group = AbelianGroup((p,) * n)
    cap = config.GROUP_ORDER_CAP if cap is None else cap
    found = _phi_search(group, group.maximal_subgroups(), cap)
    if found is None:
        raise InvariantViolationError(f"F_{p}^{n} has no efficient cover")
    k, cover = found
    s = smallest_arithmetic_size(p)
    if s**k < p**n:
        raise InvariantViolationError(
            f"efficient cover of size {k} violates the arithmetic lower bound"
        )
    return k, cover


def find_efficient_cover(group: AbelianGroup, cap: Optional[int] = None) -> Optional[CosetCover]:
    """Exhaustive search for any efficient cover; None when none exists."""
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

    def _full(self) -> int:
        return (1 << self.p**self.n) - 1

    def is_cover(self) -> bool:
        union = 0
        for m in self.masks():
            union |= m
        return union == self._full()

    def is_irredundant_cover(self) -> bool:
        return is_irredundant_mask_cover(self.masks(), self._full())

    def shrink_to_irredundant(self) -> "HyperplaneCoverInstance":
        """Greedy one-pass removal in entry order; preserves covering."""
        if not self.is_cover():
            raise PreconditionError("hyperplane family is not a cover")
        kept = shrink_mask_cover(self.masks(), self._full(), range(self.size))
        return HyperplaneCoverInstance(
            self.p,
            self.n,
            tuple(self.normals[i] for i in kept),
            tuple(self.offsets[i] for i in kept),
            self.cap,
        )

    def codimension(self) -> int:
        V = FpMultiset(self.p, self.n, self.normals)
        return span_dimension(V)


def hyperplane_cover_to_multiset(H: HyperplaneCoverInstance) -> tuple[FpMultiset, TwistAssignment]:
    """Translate hyperplanes to the twisted multiset; inverse of the builder."""
    V = FpMultiset(H.p, H.n, H.normals)
    return V, tuple(H.offsets)


def multiset_to_hyperplane_cover(V: FpMultiset, twists: Sequence[int]) -> HyperplaneCoverInstance:
    """Translate a twisted multiset to its affine hyperplane family."""
    t = normalize_twists(V, twists)
    return HyperplaneCoverInstance(V.p, V.n, V.entries, t)


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
    """All irredundant affine hyperplane covers of F_p^n (deduplicated).

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
