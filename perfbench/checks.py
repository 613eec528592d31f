"""Independent checks of fpvanish outputs.

Nothing here imports fpvanish.  Each check recomputes what it needs from the
definitions, in plain integer arithmetic (numpy only where a table of plain
integer comparisons would otherwise take seconds), and raises CheckFailed on
the first disagreement.  Elements of F_p^n and of finite abelian groups are
encoded by the documented mixed-radix index (coordinate 0 most significant).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# F_p^n: points, ranks, elimination


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def points(p: int, n: int) -> list[tuple[int, ...]]:
    """All of F_p^n in canonical order."""
    return list(product(range(p), repeat=n))


def dot(x: Sequence[int], v: Sequence[int], p: int) -> int:
    return sum(a * b for a, b in zip(x, v)) % p


def rank_mod_p(rows: Iterable[Sequence[int]], p: int) -> int:
    m = [[c % p for c in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(c * inv) % p for c in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def in_span(x: Sequence[int], rows: Sequence[Sequence[int]], p: int) -> bool:
    return rank_mod_p(list(rows) + [x], p) == rank_mod_p(rows, p)


def combination(coeffs: Sequence[int], vectors: Sequence[Sequence[int]], p: int, n: int) -> tuple:
    acc = [0] * n
    for c, v in zip(coeffs, vectors):
        for j in range(n):
            acc[j] += c * v[j]
    return tuple(a % p for a in acc)


# ---------------------------------------------------------------------------
# Vanishing of prod (1 - g^v)^r in F_p[F_p^n], by dense tables


@lru_cache(maxsize=None)
def _shift_index(p: int, n: int, v: tuple[int, ...]) -> np.ndarray:
    """idx with idx[y] = index of y - v."""
    pts = np.array(points(p, n), dtype=np.int64).reshape(-1, n)
    moved = (pts - np.array(v, dtype=np.int64)) % p
    weights = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return moved @ weights


def fp_vanishes(p: int, n: int, vectors: Sequence[Sequence[int]], r: int = 1) -> bool:
    table = np.zeros(p**n, dtype=np.int64)
    table[0] = 1
    for v in vectors:
        idx = _shift_index(p, n, tuple(v))
        for _ in range(r):
            table = (table - table[idx]) % p
        if not table.any():
            return True
    return not table.any()


def fp_irredundant(p: int, n: int, vectors: Sequence[Sequence[int]], r: int = 1) -> bool:
    if not fp_vanishes(p, n, vectors, r):
        return False
    return all(
        not fp_vanishes(p, n, vectors[:i] + vectors[i + 1 :], r) for i in range(len(vectors))
    )


def check_sub_multiset(sub: Sequence[Sequence[int]], whole: Sequence[Sequence[int]]) -> None:
    pool = [tuple(v) for v in whole]
    for v in sub:
        require(tuple(v) in pool, f"{list(v)} is not an entry of the input multiset")
        pool.remove(tuple(v))


# ---------------------------------------------------------------------------
# Arithmetic sets


def arithmetic_failure(p: int, elements: Iterable[int], r: int = 1) -> Optional[int]:
    """First element of F_p with no valid common difference, or None."""
    members = {e % p for e in elements}
    if not members:
        return 0
    for a in range(p):
        lo = -r if a in members else 1
        ok = any(all((a + i * b) % p in members for i in range(lo, r + 1)) for b in range(1, p))
        if not ok:
            return a
    return None


def check_arithmetic(p: int, elements: Sequence[int], witnesses: dict, r: int = 1) -> None:
    bad = arithmetic_failure(p, elements, r)
    require(bad is None, f"set {sorted(elements)} fails the arithmetic property at {bad} mod {p}")
    members = {e % p for e in elements}
    for a in range(p):
        b = int(witnesses[str(a)]) % p
        lo = -r if a in members else 1
        require(
            b != 0 and all((a + i * b) % p in members for i in range(lo, r + 1)),
            f"witness {b} for {a} mod {p} is not a valid difference",
        )


def log_lower_bound(p: int) -> int:
    """1 + ceil(log2 p)."""
    e = 0
    while 2**e < p:
        e += 1
    return 1 + e


def floor_log2(p: int) -> int:
    e = 0
    while 2 ** (e + 1) <= p:
        e += 1
    return e


@lru_cache(maxsize=None)
def min_arithmetic_set(p: int) -> tuple[int, ...]:
    """Plain exhaustive search: the first subset of least size, lexicographically."""
    for k in range(1, p + 1):
        for subset in combinations(range(p), k):
            if arithmetic_failure(p, subset) is None:
                return subset
    raise CheckFailed(f"no arithmetic subset of F_{p}")


# ---------------------------------------------------------------------------
# Finite abelian groups and coset covers


class Group:
    """Z_{d1} x ... x Z_{dk}, elements by mixed-radix index, with an add table."""

    def __init__(self, factors: Sequence[int]):
        self.factors = tuple(int(d) for d in factors)
        self.elements = list(product(*(range(d) for d in self.factors)))
        self.order = len(self.elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.add = [
            [
                self.index[tuple((x + y) % d for x, y, d in zip(a, b, self.factors))]
                for b in self.elements
            ]
            for a in self.elements
        ]
        self.full = (1 << self.order) - 1
        self._subgroup_ok: dict[frozenset[int], bool] = {}

    def encode(self, coords: Sequence[int]) -> int:
        return self.index[tuple(int(c) % d for c, d in zip(coords, self.factors))]

    def closure(self, gens: Iterable[int]) -> frozenset[int]:
        out = {0}
        frontier = [0]
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.add[x][g]
                if y not in out:
                    out.add(y)
                    frontier.append(y)
        return frozenset(out)

    def is_subgroup(self, H: frozenset[int]) -> bool:
        ok = self._subgroup_ok.get(H)
        if ok is None:
            ok = self._subgroup_ok[H] = 0 in H and all(self.add[a][b] in H for a in H for b in H)
        return ok

    def coset_mask(self, H: Iterable[int], rep: int) -> int:
        mask = 0
        for h in H:
            mask |= 1 << self.add[h][rep]
        return mask

    def is_elementary(self) -> bool:
        return len(set(self.factors)) == 1 and is_prime(self.factors[0])

    def largest_prime_divisor(self) -> int:
        return max(q for q in range(2, self.order + 1) if self.order % q == 0 and is_prime(q))


@lru_cache(maxsize=None)
def group(factors: tuple[int, ...]) -> Group:
    return Group(factors)


@lru_cache(maxsize=None)
def all_subgroups(factors: tuple[int, ...]) -> frozenset[frozenset[int]]:
    """Every subgroup, by closing each found subgroup with each outside element."""
    g = group(factors)
    found = {frozenset({0})}
    todo = [frozenset({0})]
    while todo:
        H = todo.pop()
        for x in range(g.order):
            if x not in H:
                K = g.closure(list(H) + [x])
                if K not in found:
                    found.add(K)
                    todo.append(K)
    return frozenset(found)


def check_subgroup_list(factors: tuple[int, ...], subgroups: Sequence[frozenset[int]]) -> None:
    g = group(factors)
    got = [frozenset(H) for H in subgroups]
    require(len(set(got)) == len(got), "the subgroup list repeats a subgroup")
    for H in got:
        require(g.is_subgroup(H), f"{sorted(H)} is not a subgroup of {factors}")
    require(
        set(got) == all_subgroups(factors),
        f"{len(got)} subgroups listed for {factors}, {len(all_subgroups(factors))} exist",
    )


def keeps_private_points(masks: Sequence[int]) -> bool:
    """Every member covers a point that no other member covers."""
    for i, m in enumerate(masks):
        others = 0
        for j, mj in enumerate(masks):
            if j != i:
                others |= mj
        if not m & ~others:
            return False
    return True


def check_coset_family(
    factors: tuple[int, ...],
    cosets: Sequence[tuple[frozenset[int], int]],
    trivial_intersection: bool,
    maximal_only: bool = False,
) -> list[int]:
    """Cover, private point per coset, optionally trivial intersection; masks."""
    g = group(factors)
    masks = []
    for H, rep in cosets:
        require(g.is_subgroup(H), f"{sorted(H)} is not a subgroup")
        if maximal_only:
            require(is_prime(g.order // len(H)), f"subgroup of order {len(H)} is not maximal")
        masks.append(g.coset_mask(H, rep))
    require(_union(masks) == g.full, f"a point of {factors} is left uncovered")
    require(keeps_private_points(masks), "a coset keeps no private point: the cover is redundant")
    if trivial_intersection:
        meet = frozenset(range(g.order))
        for H, _ in cosets:
            meet &= H
        require(meet == frozenset({0}), "the subgroups meet non-trivially")
    return masks


def cosets_from_json(factors: tuple[int, ...], witness: Sequence[dict]) -> list:
    g = group(factors)
    return [
        (g.closure(g.encode(c) for c in item["subgroup_gens"]), g.encode(item["rep"]))
        for item in witness
    ]


@lru_cache(maxsize=None)
def count_irredundant_covers(factors: tuple[int, ...], max_size: int) -> int:
    """Distinct irredundant coset covers of size <= max_size, by subset search.

    Families are grown in increasing coset order; a family in which some
    coset has lost every private point is not extended, since adding cosets
    never restores one.
    """
    g = group(factors)
    masks = sorted({g.coset_mask(H, x) for H in all_subgroups(factors) for x in range(g.order)})
    count = 0

    def grow(start: int, chosen: list[int], union: int) -> None:
        nonlocal count
        for i in range(start, len(masks)):
            fam = chosen + [masks[i]]
            if not keeps_private_points(fam):
                continue
            if union | masks[i] == g.full:
                count += 1
            elif len(fam) < max_size:
                grow(i + 1, fam, union | masks[i])

    grow(0, [], 0)
    return count


# ---------------------------------------------------------------------------
# Affine hyperplanes {x : <x, v> = c} of F_p^n


def hyperplane_mask(p: int, n: int, normal: Sequence[int], value: int) -> int:
    mask = 0
    for i, x in enumerate(points(p, n)):
        if dot(x, normal, p) == value % p:
            mask |= 1 << i
    return mask


def _union(masks: Iterable[int]) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def check_irredundant_masks(masks: Sequence[int], full: int, what: str) -> None:
    require(_union(masks) == full, f"the {what} miss a point")
    require(keeps_private_points(masks), f"one of the {what} has no private point")


@lru_cache(maxsize=None)
def count_irredundant_hyperplane_covers(p: int, n: int) -> int:
    """Irredundant covers by distinct affine hyperplanes, over all subsets."""
    hyper = []
    for v in points(p, n):
        if any(v) and next(c for c in v if c) == 1:
            for t in range(p):
                hyper.append(hyperplane_mask(p, n, v, t))
    full = (1 << p**n) - 1
    return sum(
        _union(fam) == full and keeps_private_points(fam)
        for k in range(1, len(hyper) + 1)
        for fam in combinations(hyper, k)
    )


# ---------------------------------------------------------------------------
# Twisted multisets: hyperplane {x : <x, v_i> = -t_i} per entry


@lru_cache(maxsize=None)
def twist_tables(p: int, n: int, vectors: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Per twist (entry 0 most significant): covers F_p^n?  c-irredundant?"""
    m = len(vectors)
    T = np.array(list(product(range(p), repeat=m)), dtype=np.int64).reshape(-1, m)
    pts = np.array(points(p, n), dtype=np.int64).reshape(-1, n)
    need = (-(pts @ np.array(vectors, dtype=np.int64).reshape(m, n).T)) % p  # (P, m)
    hit = T[:, None, :] == need[None, :, :]  # (T, P, m): point x on hyperplane i
    counts = hit.sum(axis=2)
    covers = (counts > 0).all(axis=1)
    private = (hit & (counts == 1)[:, :, None]).any(axis=1).all(axis=1)
    return covers, covers & private


def twist_covers_by_points(p: int, n: int, vectors, twists) -> bool:
    return all(
        any(dot(x, v, p) == (-t) % p for v, t in zip(vectors, twists)) for x in points(p, n)
    )


def check_twist_private_points(p: int, n: int, vectors, twists) -> None:
    full = (1 << p**n) - 1
    masks = [hyperplane_mask(p, n, v, -t) for v, t in zip(vectors, twists)]
    check_irredundant_masks(masks, full, "twisted hyperplanes")


def twist_index(p: int, twists: Sequence[int]) -> int:
    idx = 0
    for t in twists:
        idx = idx * p + t % p
    return idx


# ---------------------------------------------------------------------------
# Choice systems: x with (M_i x)_j nonzero for all i, j


def mat_vec(M: Sequence[Sequence[int]], x: Sequence[int], p: int) -> list[int]:
    return [dot(row, x, p) for row in M]


def nowhere_zero(mats, x, p: int) -> bool:
    return all(all(c != 0 for c in mat_vec(M, x, p)) for M in mats)


def check_ajt_witness(p: int, mats, x) -> None:
    for i, M in enumerate(mats):
        img = mat_vec(M, x, p)
        require(all(c != 0 for c in img), f"witness {list(x)} has (M_{i} x) = {img} with a zero")


def check_ajt_certificate(p: int, n: int, mats, triples, normals, offsets) -> None:
    """Forbidden hyperplanes {x : (M_i x)_j = 0} forming an irredundant cover."""
    require(len(triples) == len(normals) == len(offsets), "certificate lengths differ")
    masks = []
    for (i, j, t), v, off in zip(triples, normals, offsets):
        require(t % p == 0, f"value {t} is allowed, not forbidden")
        require([c % p for c in mats[i][j]] == [c % p for c in v], "normal is not row j of M_i")
        require((-off) % p == t % p, "offset does not match the forbidden value")
        masks.append(hyperplane_mask(p, n, v, t))
    check_irredundant_masks(masks, (1 << p**n) - 1, "forbidden hyperplanes")
    require(
        not any(nowhere_zero(mats, x, p) for x in points(p, n)),
        "a certificate was given for a system that has a witness",
    )


def is_invertible(M, p: int) -> bool:
    return rank_mod_p(M, p) == len(M)
