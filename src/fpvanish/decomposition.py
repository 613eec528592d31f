"""Coefficient descent and recursive additive-basis decomposition.

Given an irredundant vanishing multiset V and an r-arithmetic set A, every
x in span(V) can be written sum(a_v * v) with every a_v drawn from A.  The
descent starts from any representation and repeatedly rewrites one
out-of-A coefficient using a relation

    eps_w * b_w * w = sum over v != w of eps_v * b_v * v,

with eps_w in [1, r] and the other eps in [-r, r], whose existence
irredundance guarantees for any nonzero scaling b.  Choosing b from A's
witness table makes the rewrite strictly shrink the out-of-A count.

The additive-basis decomposition recurses on dimension: extract an
irredundant V from the pooled bases, split the space along T = span(V),
decompose the target's complement part over the projected pool, then solve
the T-part over V by descent.

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
    SpanDecomposition,
    check_ring_cap,
    quotient_split,
    solve_combination,
    span_dimension,
)
from .group_ring import is_fp_vanishing


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
        coeffs = tuple(int(c) % self.V.p for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        acc = FpVector(self.x.p, (0,) * self.x.n)
        for c, v in zip(coeffs, self.V.entries):
            acc = acc + v.scale(c)
        if acc != self.x:
            raise InvariantViolationError("representation does not sum to its target")


@dataclass(frozen=True)
class EpsilonRelation:
    """A relation eps_w b_w w = sum(eps_v b_v v) over the other entries."""

    V: FpMultiset
    w_index: int
    eps_w: int
    eps: tuple[int, ...]  # indexed like V.entries; entry w_index is 0 and unused
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.V.p
        if not 0 <= self.w_index < self.V.size:
            raise ValueError("w_index out of range")
        if len(self.eps) != self.V.size or len(self.b) != self.V.size:
            raise ValueError("eps and b must be total on V")
        if any(int(x) % p == 0 for x in self.b):
            raise ValueError("scalings must be nonzero")
        lhs = self.V[self.w_index].scale(self.eps_w * self.b[self.w_index])
        rhs = FpVector(p, (0,) * self.V.n)
        for j, v in enumerate(self.V.entries):
            if j != self.w_index:
                rhs = rhs + v.scale(self.eps[j] * self.b[j])
        if lhs != rhs:
            raise InvariantViolationError("relation does not balance")


def _epsilon_preference(r: int) -> list[int]:
    order = [0]
    for k in range(1, r + 1):
        order.extend((k, -k))
    return order


def find_epsilon_relation(
    V: FpMultiset,
    r: int,
    b: Sequence[int],
    w_index: int,
) -> EpsilonRelation:
    """Find a balanced relation singling out entry w, by reachability DP.

    The DP computes, level by level, which group elements are expressible as
    sum(eps_v b_v v) over the processed entries with eps in [-r, r], then
    tests eps_w b_w w for eps_w = 1..r and backtracks one witness.  The
    caller certifies that V is irredundant for exponent r; if so a relation
    is guaranteed to exist, and failure certifies the precondition was
    violated.
    """
    p, n = V.p, V.n
    if not 0 <= w_index < V.size:
        raise ValueError("w_index out of range")
    bb = [int(x) % p for x in b]
    if len(bb) != V.size or any(x == 0 for x in bb):
        raise PreconditionError("scalings b must be total on V and nonzero")
    dims = (p,) * n
    size = p**n

    steps = [
        (j, V[j].scale(bb[j]))
        for j in range(V.size)
        if j != w_index
    ]
    reach = np.zeros(size, dtype=np.uint8)
    reach[0] = 1
    levels = [reach]
    for _, sv in steps:
        reach = _kernels.reach_expand(reach, dims, sv.coords, r, p)
        levels.append(reach)

    w_vec = V[w_index]
    target = None
    eps_w = None
    for cand in range(1, r + 1):
        tv = w_vec.scale(cand * bb[w_index])
        if levels[-1][tv.index]:
            target = tv
            eps_w = cand
            break
    if target is None:
        raise PreconditionError(
            "no balanced relation exists: V is not irredundant for this exponent"
        )

    eps = [0] * V.size
    cur = target
    pref = _epsilon_preference(r)
    for lvl in range(len(steps) - 1, -1, -1):
        j, sv = steps[lvl]
        for e in pref:
            cand = cur - sv.scale(e)
            if levels[lvl][cand.index]:
                eps[j] = e
                cur = cand
                break
        else:
            raise InvariantViolationError("reachability backtrack failed")
    if not cur.is_zero():
        raise InvariantViolationError("reachability backtrack did not reach zero")
    return EpsilonRelation(V, w_index, eps_w, tuple(eps), tuple(bb))


def represent_in_set(
    x: FpVector, V: FpMultiset, A: ArithmeticSet, r: int = 1
) -> Representation:
    """Represent x over V with every coefficient in A, by coefficient descent.

    Preconditions: V is irredundant for exponent r (caller-certified; the
    vanishing part is re-checked), A is r-arithmetic with A.r >= r, and x
    lies in span(V).
    """
    p = V.p
    if A.p != p:
        raise PreconditionError("arithmetic set and multiset moduli differ")
    if A.r < r:
        raise PreconditionError(f"need an arithmetic set with r >= {r}, got r = {A.r}")
    if not is_fp_vanishing(V, r):
        raise PreconditionError("V is not vanishing for this exponent")
    coeffs = solve_combination(list(V.entries), x)
    if coeffs is None:
        raise NotInSpanError("target does not lie in the span of V")

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
        rel = find_epsilon_relation(V, r, b, w)
        coeffs[w] = (coeffs[w] + rel.eps_w * b[w]) % p
        for j in range(V.size):
            if j != w:
                coeffs[j] = (coeffs[j] - rel.eps[j] * b[j]) % p
        steps += 1
        new_out = [i for i, c in enumerate(coeffs) if c not in members]
        if len(new_out) >= len(out):
            raise InvariantViolationError("descent failed to shrink the out-of-A count")
        out = new_out
    return Representation(x, V, tuple(coeffs), descent_steps=steps)


# ---------------------------------------------------------------------------
# Recursive additive-basis decomposition


def _as_basis_list(p: int, n: int, bases: Sequence) -> list[list[FpVector]]:
    out = []
    for group in bases:
        vecs = []
        for v in group:
            if isinstance(v, FpVector):
                vecs.append(v)
            else:
                vecs.append(FpVector(p, tuple(int(c) % p for c in v)))
        out.append(vecs)
    return out


@dataclass
class _Level:
    dec: SpanDecomposition
    v_ids: list[int]
    V: FpMultiset
    rest: list[tuple[int, FpVector]]
    child: "_Level | _Leaf"


@dataclass
class _Leaf:
    ids: list[int]


class DecompositionPlan:
    """Reusable recursion structure for decomposing many targets over one pool.

    The pool is supplied as an explicit list of bases; the union is formed
    internally.  Building the plan performs the expensive steps (irredundant
    extraction and span splits) once; decompose() then costs one descent per
    recursion level per target.
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
        groups = _as_basis_list(self.p, self.n, bases)
        needed = -(-self.p // self.r)  # ceil(p / r)
        if len(groups) < needed:
            raise PreconditionError(
                f"need at least ceil(p/r) = {needed} bases, got {len(groups)}"
            )
        for gi, group in enumerate(groups):
            if len(group) != self.n:
                raise PreconditionError(f"basis {gi} has {len(group)} vectors, expected {self.n}")
            M = FpMultiset(self.p, self.n, tuple(group))
            if span_dimension(M) != self.n:
                raise PreconditionError(f"basis {gi} is not linearly independent")
        entries: list[tuple[int, FpVector]] = []
        self.group_of: list[int] = []
        for gi, group in enumerate(groups):
            for v in group:
                self.group_of.append(gi)
                entries.append((len(entries), v))
        self.pool = FpMultiset(self.p, self.n, tuple(v for _, v in entries))
        self.n_groups = len(groups)
        self.root = self._build(entries, self.n)

    def _build(self, entries: list[tuple[int, FpVector]], n_level: int) -> _Level | _Leaf:
        if n_level == 0:
            return _Leaf([eid for eid, _ in entries])
        nonzero = [(eid, v) for eid, v in entries if not v.is_zero()]
        ordered = sorted(nonzero, key=lambda iv: iv[1].coords)
        pool = FpMultiset(self.p, n_level, tuple(v for _, v in ordered))
        if not is_fp_vanishing(pool, self.r):
            raise InvariantViolationError(
                "pooled entries are not vanishing; the basis-count hypothesis broke"
            )
        from .group_ring import _greedy_irredundant_indices

        kept = _greedy_irredundant_indices([v for _, v in ordered], self.r, self.p, n_level)
        kept_set = set(kept)
        v_ids = [ordered[i][0] for i in kept]
        V = FpMultiset(self.p, n_level, tuple(ordered[i][1] for i in kept))
        dec = quotient_split(V, n_level)
        removed = set(v_ids)
        rest = [(eid, v) for eid, v in entries if eid not in removed]

        # Recursion invariant: within every group, the projections of the
        # surviving entries still span the complement.
        by_group: dict[int, list[FpVector]] = {}
        projected: list[tuple[int, FpVector]] = []
        for eid, v in rest:
            v_s, _ = dec.project(v)
            projected.append((eid, v_s))
            by_group.setdefault(self.group_of[eid], []).append(v_s)
        if dec.dim_s > 0:
            for gi in range(self.n_groups):
                vecs = by_group.get(gi, [])
                M = FpMultiset(self.p, dec.dim_s, tuple(vecs))
                if span_dimension(M) != dec.dim_s:
                    raise InvariantViolationError(
                        f"projected basis {gi} no longer spans the complement"
                    )
        child = self._build(projected, dec.dim_s)
        return _Level(dec, v_ids, V, rest, child)

    def decompose(self, w: FpVector) -> Representation:
        """Coefficients in A over the whole pool with sum(a_v v) = w."""
        if w.p != self.p or w.n != self.n:
            raise PreconditionError("target does not live in the decomposed space")
        coeffs: dict[int, int] = {}
        steps = self._solve(self.root, w, coeffs)
        ordered = tuple(coeffs[eid] for eid in range(self.pool.size))
        rep = Representation(w, self.pool, ordered, descent_steps=steps)
        if any(c not in self.A.elements for c in rep.coefficients):
            raise InvariantViolationError("a coefficient escaped the arithmetic set")
        return rep

    def _solve(self, node: _Level | _Leaf, x: FpVector, coeffs: dict[int, int]) -> int:
        if isinstance(node, _Leaf):
            fill = min(self.A.elements)
            for eid in node.ids:
                coeffs[eid] = fill
            return 0
        x_s, x_t = node.dec.project(x)
        steps = self._solve(node.child, x_s, coeffs)
        x_prime = x_t
        for eid, v in node.rest:
            x_prime = x_prime - node.dec.t_component(v).scale(coeffs[eid])
        rep = represent_in_set(x_prime, node.V, self.A, self.r)
        for pos, eid in enumerate(node.v_ids):
            coeffs[eid] = rep.coefficients[pos]
        return steps + rep.descent_steps


def additive_basis_decompose(
    w: FpVector, bases: Sequence, A: ArithmeticSet, r: int = 1
) -> Representation:
    """One-shot decomposition of w over a union of bases, coefficients in A."""
    plan = DecompositionPlan(w.p, w.n, bases, A, r)
    return plan.decompose(w)


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

    Keeps the table R of every sum reachable over the entries seen so far:
    R_0 = {0} and R_{i+1} = union over a in A of (R_i + a v_i), each
    translate a roll of the (p,)*n grid.  That is |V| |A| p^n boolean steps
    in O(p^n) memory, independent of the descent's reachability kernel.
    `cap` bounds p^n as the ring cap does.
    """
    p, n = x.p, x.n
    if (V.p, V.n) != (p, n):
        raise PreconditionError("target and multiset live in different spaces")
    check_ring_cap(p, n, cap)
    pool = _element_pool(A)
    axes = tuple(range(n))
    reach = np.zeros((p,) * n, dtype=bool)
    reach[(0,) * n] = True
    for v in V.entries:
        shifts = {tuple(a * c % p for c in v.coords) for a in pool}
        nxt = np.zeros_like(reach)
        for s in shifts:
            # np.roll rejects axis=(); F_p^0 is a single point
            nxt |= np.roll(reach, s, axis=axes) if n else reach
        reach = nxt
    return bool(reach[x.coords])


def verify_size_bound(V: FpMultiset, s: int) -> bool:
    """Check |V| >= (log p / log s) * dim span(V), exactly in integers.

    Equivalent form: s^|V| >= p^dim.  `s` is the minimum arithmetic-set size
    from the arithmetic_sets module; the bound applies to irredundant V
    (caller-certified).
    """
    if s < 2:
        raise ValueError("arithmetic-set size must be at least 2")
    d = span_dimension(V)
    return s**V.size >= V.p**d
