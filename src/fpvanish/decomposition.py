"""Coefficient descent and recursive additive-basis decomposition.

Given an irredundant vanishing multiset V and an r-arithmetic set A, every
x in span(V) can be written sum(a_v * v) with every a_v drawn from A.  The
descent starts from any representation and repeatedly rewrites one
out-of-A coefficient using a relation

    eps_w * b_w * w = sum over v != w of eps_v * b_v * v,

with eps_w in [1, r] and the other eps in [-r, r], whose existence
irredundance guarantees for any nonzero scaling b.  Choosing b from A's
witness table makes the rewrite strictly shrink the out-of-A count.

The descent core (_descend), the span solve (solve_combination) and the
relation search (find_epsilon_relation) take V as a list of coordinate
tuples and the target as one tuple: the search indexes the (p,)*n views of
its reachability levels with them, backtracks with tuple arithmetic mod p
and re-checks that its relation balances by summing an integer combination.
FpVector and FpMultiset appear only at the API boundary: represent_in_set
and brute_force_representable take them, Representation holds them, and
DecompositionPlan.decompose takes a target FpVector.

The additive-basis decomposition recurses on dimension: extract an
irredundant V from the pooled bases, split the space along T = span(V),
decompose the target's complement part over the projected pool, then solve
the T-part over V by descent.  DecompositionPlan extracts each level's V
rows and its span split once, on coordinate tuples, and certifies V
vanishing there; a level then runs _descend on the T-part without proving V
again.  represent_in_set re-checks vanishing only because its V comes from
the caller.

The oracle brute_force_representable re-certifies representability without
the descent: a table of every sum reachable over F_p^n, one entry of V at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .arithmetic_sets import ArithmeticSet
from .errors import (
    InvariantViolationError,
    NotInSpanError,
    PreconditionError,
)
from .fp_core import (
    FpMultiset,
    FpVector,
    _combination,
    _rank,
    check_ring_cap,
    rref_mod_p,
    solve_combination,
)
from .group_ring import _fp_product, _greedy_irredundant_indices, is_fp_vanishing


_Coords = tuple[int, ...]


@dataclass(frozen=True)
class Representation:
    """Coefficients a with sum(a_v * v) = x over the entries of V."""

    x: FpVector
    V: FpMultiset
    coefficients: tuple[int, ...]
    descent_steps: int = 0

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.V.size:
            raise ValueError("one coefficient per multiset entry required")
        if (self.x.p, self.x.n) != (self.V.p, self.V.n):
            raise ValueError("target and multiset live in different spaces")
        coeffs = tuple(int(c) % self.V.p for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if _combination(self.V.p, self.V.n, [v.coords for v in self.V], coeffs) != self.x.coords:
            raise InvariantViolationError("representation does not sum to its target")


def _epsilon_preference(r: int) -> list[int]:
    order = [0]
    for k in range(1, r + 1):
        order.extend((k, -k))
    return order


def find_epsilon_relation(
    p: int,
    rows: Sequence[_Coords],
    r: int,
    b: Sequence[int],
    w_index: int,
) -> tuple[int, _Coords]:
    """A balanced relation singling out entry w, as (eps_w, eps), by reachability DP.

    The relation is eps_w b_w w = sum over v != w of eps_v b_v v over the
    coordinate rows of V; eps is indexed like rows, with eps[w_index] = 0.
    The DP computes, level by level, which group elements are expressible as
    sum(eps_v b_v v) over the processed entries with eps in [-r, r], then
    tests eps_w b_w w for eps_w = 1..r and backtracks one witness, in the
    preference order 0, 1, -1, ..., r, -r, on coordinate tuples that index
    the levels' (p,)*n views.  The DP stops at the first level that holds
    the eps_w = 1 target b_w w and backtracks from there; only if no level
    holds it does every level run, and the least eps_w reached is taken.
    The relation is the one the full DP gives: levels only grow, since
    eps = 0 is allowed, so every later level holds the target and the
    backtrack, which tries 0 first, sets eps = 0 on all of their entries.

    The caller certifies that V is irredundant for exponent r; if so a
    relation is guaranteed to exist, and failure certifies the precondition
    was violated.  The relation is re-checked by summing it over the rows; a
    relation that does not balance raises InvariantViolationError.
    """
    if not 0 <= w_index < len(rows):
        raise ValueError("w_index out of range")
    n = len(rows[w_index])
    bb = [int(x) % p for x in b]
    if len(bb) != len(rows) or any(x == 0 for x in bb):
        raise PreconditionError("scalings b must be total on V and nonzero")
    dims = (p,) * n

    def scaled(coords: _Coords, c: int) -> _Coords:
        return tuple(c * a % p for a in coords)

    steps = [(j, scaled(row, bb[j])) for j, row in enumerate(rows) if j != w_index]
    first = scaled(rows[w_index], bb[w_index])  # the eps_w = 1 target
    reach = np.zeros(p**n, dtype=np.uint8)
    reach[0] = 1
    levels = [reach.reshape(dims)]
    for _, sv in steps:
        if levels[-1][first]:
            break
        reach = _kernels.reach_expand(reach, dims, sv, r, p)
        levels.append(reach.reshape(dims))

    target = None
    eps_w = None
    for cand in range(1, r + 1):
        tv = scaled(rows[w_index], cand * bb[w_index])
        if levels[-1][tv]:
            target = tv
            eps_w = cand
            break
    if target is None:
        raise PreconditionError(
            "no balanced relation exists: V is not irredundant for this exponent"
        )

    eps = [0] * len(rows)
    cur = target
    pref = _epsilon_preference(r)
    for lvl in range(len(levels) - 2, -1, -1):
        j, sv = steps[lvl]
        for e in pref:
            cand = tuple((a - e * s) % p for a, s in zip(cur, sv))
            if levels[lvl][cand]:
                eps[j] = e
                cur = cand
                break
        else:
            raise InvariantViolationError("reachability backtrack failed")
    # eps_w b_w w - sum over v != w of eps_v b_v v must be zero
    coeffs = [-e * x for e, x in zip(eps, bb)]
    coeffs[w_index] = eps_w * bb[w_index]
    if any(_combination(p, n, rows, coeffs)):
        raise InvariantViolationError("relation does not balance")
    return eps_w, tuple(eps)


def represent_in_set(
    x: FpVector, V: FpMultiset, A: ArithmeticSet, r: int = 1
) -> Representation:
    """Represent x over V with every coefficient in A, by coefficient descent.

    Preconditions: V is irredundant for exponent r (caller-certified; since
    V comes from the caller, its vanishing part is re-checked here), A is
    r-arithmetic with A.r >= r, and x lies in span(V).
    """
    if (x.p, x.n) != (V.p, V.n):
        raise PreconditionError("target and multiset live in different spaces")
    if A.p != V.p:
        raise PreconditionError("arithmetic set and multiset moduli differ")
    if A.r < r:
        raise PreconditionError(f"need an arithmetic set with r >= {r}, got r = {A.r}")
    if not is_fp_vanishing(V, r):
        raise PreconditionError("V is not vanishing for this exponent")
    coeffs, steps = _descend(V.p, [v.coords for v in V], x.coords, A, r)
    return Representation(x, V, tuple(coeffs), descent_steps=steps)


def _descend(
    p: int, rows: Sequence[_Coords], x: _Coords, A: ArithmeticSet, r: int
) -> tuple[list[int], int]:
    """Coefficients over the rows of V, all in A, summing to x, and the number
    of rewrites.

    The descent core shared by represent_in_set and the plan levels; V must
    already be certified irredundant for exponent r.
    """
    solved = solve_combination(p, rows, x)
    if solved is None:
        raise NotInSpanError("target does not lie in the span of V")
    coeffs = list(solved)

    members = A.elements
    steps = 0
    out = [i for i, c in enumerate(coeffs) if c not in members]
    while out:
        w = out[0]
        b = []
        for i, c in enumerate(coeffs):
            if i == w:
                b.append(A.out_witness(c))
            elif c in members:
                b.append(A.in_witness(c))
            else:
                b.append(1)
        eps_w, eps = find_epsilon_relation(p, rows, r, b, w)
        coeffs = [(c - e * bj) % p for c, e, bj in zip(coeffs, eps, b)]
        coeffs[w] = (coeffs[w] + eps_w * b[w]) % p
        steps += 1
        new_out = [i for i, c in enumerate(coeffs) if c not in members]
        if len(new_out) >= len(out):
            raise InvariantViolationError("descent failed to shrink the out-of-A count")
        out = new_out
    return coeffs, steps


# ---------------------------------------------------------------------------
# Recursive additive-basis decomposition


_Split = tuple[list[_Coords], list[int], list[int]]


def _span_split(p: int, n: int, rows: Sequence[_Coords]) -> _Split:
    """Split F_p^n along T = span(rows): T's rref basis rows, their pivot
    columns, and the free columns that coordinatize the complement S.

    The rows go to rref_mod_p as an (m, n) array even when m = 0.
    """
    rref, pivots = rref_mod_p(np.array(rows, dtype=np.int64).reshape(len(rows), n), p)
    return [tuple(row) for row in rref.tolist()], pivots, [c for c in range(n) if c not in pivots]


def _project(p: int, split: _Split, x: _Coords) -> tuple[_Coords, _Coords]:
    """(x_S, x_T): x_T in T, and x_S the free-column coordinates of x - x_T.

    The rref basis is the identity on the pivot columns, so x_T takes x's
    pivot coordinates as its coefficients and x - x_T vanishes there.
    """
    basis, pivots, free = split
    x_t = _combination(p, len(x), basis, [x[c] for c in pivots])
    return tuple((x[c] - x_t[c]) % p for c in free), x_t


@dataclass
class _Level:
    split: _Split
    v_ids: list[int]
    v_rows: list[_Coords]
    rest: list[tuple[int, _Coords]]
    child: "_Level | _Leaf"


@dataclass
class _Leaf:
    ids: list[int]


class DecompositionPlan:
    """Reusable recursion structure for decomposing many targets over one pool.

    The pool is supplied as an explicit list of bases, each a list of n
    coordinate sequences; the union is formed internally.  Building the plan
    performs the expensive steps (irredundant extraction and span splits)
    once; decompose() then costs one descent per recursion level per target.
    """

    def __init__(self, p: int, n: int, bases: Sequence, A: ArithmeticSet, r: int = 1):
        self.p = int(p)
        self.n = int(n)
        self.A = A
        self.r = int(r)
        if A.p != self.p:
            raise PreconditionError("arithmetic set modulus does not match")
        if A.r < self.r:
            raise PreconditionError(f"need an arithmetic set with r >= {r}, got r = {A.r}")
        groups = [[tuple(int(c) % self.p for c in v) for v in group] for group in bases]
        needed = -(-self.p // self.r)  # ceil(p / r)
        if len(groups) < needed:
            raise PreconditionError(
                f"need at least ceil(p/r) = {needed} bases, got {len(groups)}"
            )
        for gi, group in enumerate(groups):
            if len(group) != self.n:
                raise PreconditionError(f"basis {gi} has {len(group)} vectors, expected {self.n}")
            for v in group:
                if len(v) != self.n:
                    raise PreconditionError(
                        f"basis {gi} has a vector with {len(v)} coordinates, expected {self.n}"
                    )
            if _rank(self.p, self.n, group) != self.n:
                raise PreconditionError(f"basis {gi} is not linearly independent")
        entries = [v for group in groups for v in group]
        self.group_of = [gi for gi, group in enumerate(groups) for _ in group]
        self.pool = FpMultiset.from_coords(self.p, entries, n=self.n)
        self.n_groups = len(groups)
        self.root = self._build(list(enumerate(entries)), self.n)

    def _build(self, entries: list[tuple[int, _Coords]], n_level: int) -> _Level | _Leaf:
        if n_level == 0:
            return _Leaf([eid for eid, _ in entries])
        ordered = sorted(((eid, v) for eid, v in entries if any(v)), key=lambda iv: iv[1])
        pool = [v for _, v in ordered]
        # The count settles this check: within every group the nonzero entries
        # span the level, so there are at least ceil(p/r) * n_level of them,
        # and r * ceil(p/r) * n_level >= p * n_level > n_level * (p - 1), past
        # the nilpotency bound, so _fp_product multiplies no binomial here.
        if _fp_product(pool, self.r, self.p, n_level).any():
            raise InvariantViolationError(
                "pooled entries are not vanishing; the basis-count hypothesis broke"
            )
        kept = _greedy_irredundant_indices(pool, self.r, self.p, n_level)
        v_ids = [ordered[i][0] for i in kept]
        # V is certified irredundant here, once; _solve runs the descent on it
        # without re-checking.
        v_rows = [pool[i] for i in kept]
        split = _span_split(self.p, n_level, v_rows)
        dim_s = len(split[2])
        removed = set(v_ids)
        rest = [(eid, v) for eid, v in entries if eid not in removed]

        # Recursion invariant: within every group, the projections of the
        # surviving entries still span the complement.
        by_group: dict[int, list[_Coords]] = {gi: [] for gi in range(self.n_groups)}
        projected: list[tuple[int, _Coords]] = []
        for eid, v in rest:
            v_s, _ = _project(self.p, split, v)
            projected.append((eid, v_s))
            by_group[self.group_of[eid]].append(v_s)
        if dim_s > 0:
            for gi, vecs in by_group.items():
                if _rank(self.p, dim_s, vecs) != dim_s:
                    raise InvariantViolationError(
                        f"projected basis {gi} no longer spans the complement"
                    )
        child = self._build(projected, dim_s)
        return _Level(split, v_ids, v_rows, rest, child)

    def decompose(self, w: FpVector) -> Representation:
        """Coefficients in A over the whole pool with sum(a_v v) = w."""
        if w.p != self.p or w.n != self.n:
            raise PreconditionError("target does not live in the decomposed space")
        coeffs: dict[int, int] = {}
        steps = self._solve(self.root, w.coords, coeffs)
        ordered = tuple(coeffs[eid] for eid in range(self.pool.size))
        rep = Representation(w, self.pool, ordered, descent_steps=steps)
        if any(c not in self.A.elements for c in rep.coefficients):
            raise InvariantViolationError("a coefficient escaped the arithmetic set")
        return rep

    def _solve(self, node: _Level | _Leaf, x: _Coords, coeffs: dict[int, int]) -> int:
        if isinstance(node, _Leaf):
            fill = min(self.A.elements)
            for eid in node.ids:
                coeffs[eid] = fill
            return 0
        x_s, _ = _project(self.p, node.split, x)
        steps = self._solve(node.child, x_s, coeffs)
        # The T-part of x minus the rest's share, t(x - sum c v), by linearity of t.
        residual = _combination(
            self.p, len(x), [x] + [v for _, v in node.rest], [1] + [-coeffs[eid] for eid, _ in node.rest]
        )
        _, x_t = _project(self.p, node.split, residual)
        level_coeffs, level_steps = _descend(self.p, node.v_rows, x_t, self.A, self.r)
        coeffs.update(zip(node.v_ids, level_coeffs))
        return steps + level_steps


# ---------------------------------------------------------------------------
# Oracles and bounds


def _element_pool(A) -> list[int]:
    if isinstance(A, ArithmeticSet):
        return sorted(A.elements)
    return sorted(set(int(x) for x in A))


def brute_force_representable(
    x: FpVector, V: FpMultiset, A, cap: Optional[int] = None
) -> bool:
    """True iff some choice a in A^V has sum(a_v v) = x; exhaustive oracle.

    Keeps the flat (p^n,) table R of every sum reachable over the entries
    seen so far: R_0 = {0} and R_{i+1} = union over a in A of (R_i + a v_i),
    each translate one group shift by _kernels._rolled.  That is |V| |A| p^n
    boolean steps in O(p^n) memory.  The oracle shares only that shift
    primitive with the descent, not its reachability kernel reach_expand,
    so it still re-certifies the descent by an independent path.  `cap`
    bounds p^n as the ring cap does.
    """
    p, n = x.p, x.n
    if (V.p, V.n) != (p, n):
        raise PreconditionError("target and multiset live in different spaces")
    dims = (p,) * n
    reach = np.zeros(check_ring_cap(p, n, cap), dtype=bool)
    reach[0] = True
    pool = _element_pool(A)
    for v in V.entries:
        nxt = np.zeros_like(reach)
        for s in {tuple(a * c % p for c in v.coords) for a in pool}:
            nxt |= _kernels._rolled(reach, dims, s)
        reach = nxt
    return bool(reach.reshape(dims)[x.coords])
