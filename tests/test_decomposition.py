from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpvanish import decomposition as dc
from fpvanish import group_ring as gr
from fpvanish.arithmetic_sets import ArithmeticSet, min_arithmetic_set, smallest_arithmetic_size
from fpvanish.errors import (
    CapExceededError,
    InvariantViolationError,
    NotInSpanError,
    PreconditionError,
)
from fpvanish.fp_core import FpMultiset, FpVector, enumerate_vectors, span_dimension

import reference as ref
from conftest import random_multiset


def _reference_sums(V, pool):
    """Every sum(a_v * v) over all choices in pool^V, by plain enumeration."""
    p, n = V.p, V.n
    out = set()
    for choice in itertools.product(sorted(set(pool)), repeat=V.size):
        acc = [0] * n
        for a, v in zip(choice, V.entries):
            acc = [(s + a * c) % p for s, c in zip(acc, v.coords)]
        out.add(tuple(acc))
    return out


def seeded_irredundant(rng, p, n, r=1):
    size = -(-((p - 1) * n + 1) // r)
    V = random_multiset(rng, p, n, size, nonzero=True)
    return gr.extract_irredundant_fp(V, r)


def _rows(V):
    return [v.coords for v in V.entries]


def _balance(p, rows, b, w, eps_w, eps):
    """eps_w b_w w - sum over v != w of eps_v b_v v, by the reference arithmetic."""
    coeffs = [-e * x for e, x in zip(eps, b)]
    coeffs[w] = eps_w * b[w]
    return ref.combination(p, coeffs, rows)


class TestEpsilonRelation:
    def test_p_copies_prefers_single_step(self):
        eps_w, eps = dc.find_epsilon_relation(5, [(1,)] * 5, 1, [1] * 5, 0)
        assert eps_w == 1
        assert sorted(eps[1:]) == [0, 0, 0, 1]

    def test_f2_pair_structure(self):
        eps_w, eps = dc.find_epsilon_relation(2, [(1, 0), (1, 0), (0, 1), (0, 1)], 1, [1] * 4, 0)
        assert eps_w == 1
        # the relation e1 = e1 uses only the duplicate copy
        assert eps == (0, 1, 0, 0)

    def test_balance_recheck(self, monkeypatch):
        # the relation is re-summed over the rows before it is returned; a sum
        # that comes out nonzero is an invariant violation, not a relation
        rows = [(1,), (1,)]
        assert dc.find_epsilon_relation(5, rows, 1, [1, 1], 0) == (1, (0, 1))
        monkeypatch.setattr(dc, "_combination", lambda p, n, rows, coeffs: (1,) * n)
        with pytest.raises(InvariantViolationError, match="does not balance"):
            dc.find_epsilon_relation(5, rows, 1, [1, 1], 0)

    def test_non_irredundant_input_detected(self):
        # a basis never vanishes, so no relation can exist
        with pytest.raises(PreconditionError):
            dc.find_epsilon_relation(5, [(1, 0), (0, 1)], 1, [1, 1], 0)

    def test_random_relations_reverify(self, rng):
        for _ in range(15):
            p = int(rng.choice([3, 5, 7]))
            n = int(rng.integers(1, 3))
            rows = _rows(seeded_irredundant(rng, p, n))
            b = [int(rng.integers(1, p)) for _ in rows]
            w = int(rng.integers(len(rows)))
            eps_w, eps = dc.find_epsilon_relation(p, rows, 1, b, w)
            assert 1 <= eps_w <= 1
            assert all(-1 <= e <= 1 for e in eps) and eps[w] == 0
            assert not any(_balance(p, rows, b, w, eps_w, eps))


def _reference_levels(V, r, b, w_index):
    """Every reachability level of the relation search, as plain sets of
    coordinate tuples, with the scaled steps and the eps_w targets b_w w,
    2 b_w w, ..., r b_w w."""
    p, n = V.p, V.n
    bb = [int(x) % p for x in b]
    rows = [v.coords for v in V.entries]
    steps = [(j, ref.combination(p, [bb[j]], [rows[j]])) for j in range(V.size) if j != w_index]
    levels = [{(0,) * n}]
    for _, sv in steps:
        levels.append({ref.combination(p, [1, e], [x, sv]) for x in levels[-1] for e in range(-r, r + 1)})
    targets = [ref.combination(p, [c * bb[w_index]], [rows[w_index]]) for c in range(1, r + 1)]
    return steps, levels, targets


def _reference_relation(V, r, b, w_index):
    """The set-based reachability backtrack over every level: (eps_w, eps).

    The backtrack tries eps in the order 0, 1, -1, ..., r, -r, as the
    descent must.
    """
    p = V.p
    steps, levels, targets = _reference_levels(V, r, b, w_index)
    eps_w = next(c for c, t in enumerate(targets, 1) if t in levels[-1])
    cur = targets[eps_w - 1]
    pref = [0] + [s * k for k in range(1, r + 1) for s in (1, -1)]
    eps = [0] * V.size
    for lvl in range(len(steps) - 1, -1, -1):
        j, sv = steps[lvl]
        e = next(e for e in pref if ref.combination(p, [1, -e], [cur, sv]) in levels[lvl])
        eps[j] = e
        cur = ref.combination(p, [1, -e], [cur, sv])
    assert not any(cur)
    return eps_w, tuple(eps)


def _repeated_irredundant(rng, p, n, r):
    """An irredundant multiset with repeated entries: two directions, 2(p-1)+1 copies."""
    pair = random_multiset(rng, p, n, 2, nonzero=True).entries
    copies = [pair[int(rng.integers(2))] for _ in range(2 * (p - 1) + 1)]
    V = gr.extract_irredundant_fp(FpMultiset(p, n, tuple(copies)), r)
    assert len(set(V.entries)) < V.size
    return V


class TestDescentAgainstReference:
    """find_epsilon_relation against the set-based reference backtrack."""

    @pytest.mark.parametrize("p,r", [(p, r) for p in (5, 7, 11, 13) for r in (1, 2, 4) if r < p])
    def test_relations_match(self, rng, p, r):
        # n = 3 only for p <= 7: the set-based reference takes ~1 s a relation at p = 13
        for n in (1, 2, 3) if p <= 7 else (1, 2):
            for V in (seeded_irredundant(rng, p, n, r), _repeated_irredundant(rng, p, n, r)):
                for w in {0, V.size - 1, int(rng.integers(V.size))}:
                    b = [int(x) for x in rng.integers(1, p, size=V.size)]
                    relation = dc.find_epsilon_relation(p, _rows(V), r, b, w)
                    assert relation == _reference_relation(V, r, b, w)
                self._assert_corruptions_caught(V, rng)

    @staticmethod
    def _assert_corruptions_caught(V, rng):
        coeffs = [int(c) for c in rng.integers(0, V.p, size=V.size)]
        x = FpVector(V.p, tuple(sum(c * v.coords[i] for c, v in zip(coeffs, V.entries)) % V.p for i in range(V.n)))
        assert dc.Representation(x, V, tuple(coeffs)).coefficients == tuple(coeffs)
        coeffs[int(rng.integers(V.size))] += 1
        with pytest.raises(InvariantViolationError):
            dc.Representation(x, V, tuple(coeffs))


def _counting_reach_expand(monkeypatch) -> list[int]:
    """Count the calls into the reachability kernel; returns the counter."""
    calls = [0]
    expand = dc._kernels.reach_expand

    def counted(*args):
        calls[0] += 1
        return expand(*args)

    monkeypatch.setattr(dc._kernels, "reach_expand", counted)
    return calls


class TestEarlyStop:
    """The relation search runs levels only until one holds the eps_w = 1 target."""

    def test_stops_at_the_first_level_holding_the_target(self, monkeypatch):
        # F_5^2, w = (1, 1): level 2 holds (1, 0) + (0, 1); the last three
        # entries are never expanded, and their eps stay 0
        V = FpMultiset.from_coords(5, [(1, 1), (1, 0), (0, 1), (1, 2), (2, 1), (3, 3)])
        calls = _counting_reach_expand(monkeypatch)
        relation = dc.find_epsilon_relation(5, _rows(V), 1, [1] * 6, 0)
        assert calls[0] == 2
        assert relation == (1, (0, 1, 1, 0, 0, 0)) == _reference_relation(V, 1, [1] * 6, 0)

    def test_level_count_matches_the_reference(self, monkeypatch, rng):
        calls = _counting_reach_expand(monkeypatch)
        early = 0
        for p, n in ((5, 1), (5, 2), (7, 2), (5, 3)):
            for _ in range(4):
                V = seeded_irredundant(rng, p, n)
                b = [int(x) for x in rng.integers(1, p, size=V.size)]
                w = int(rng.integers(V.size))
                _, levels, targets = _reference_levels(V, 1, b, w)
                k = next(k for k, level in enumerate(levels) if targets[0] in level)
                calls[0] = 0
                assert dc.find_epsilon_relation(p, _rows(V), 1, b, w) == _reference_relation(V, 1, b, w)
                assert calls[0] == k
                early += k < V.size - 1
        assert early  # some relation stops before the last level

    def test_unreachable_first_target_runs_every_level(self, monkeypatch):
        # r = 2 in F_7^2: draw three entries until b_w w is in no level but a
        # larger multiple of it is; then every level runs and eps_w >= 2
        rng = np.random.default_rng(7)
        calls = _counting_reach_expand(monkeypatch)
        while True:
            V = random_multiset(rng, 7, 2, 3, nonzero=True)
            b = [int(x) for x in rng.integers(1, 7, size=3)]
            _, levels, targets = _reference_levels(V, 2, b, 0)
            if targets[0] not in levels[-1] and targets[1] in levels[-1]:
                break
        eps_w, eps = dc.find_epsilon_relation(7, _rows(V), 2, b, 0)
        assert calls[0] == 2
        assert eps_w == 2
        assert (eps_w, eps) == _reference_relation(V, 2, b, 0)


class TestRepresentInSet:
    def test_five_copies_zero_target(self):
        A = ArithmeticSet.verified([1, 2, 3, 4], 1, 5)
        V = FpMultiset.from_coords(5, [[1]] * 5)
        rep = dc.represent_in_set(FpVector(5, (0,)), V, A, 1)
        assert sum(rep.coefficients) % 5 == 0
        assert all(c in A.elements for c in rep.coefficients)

    def test_zero_descent_steps_when_initial_fits(self):
        # the initial elimination coefficients {1, 0, 0, ...} already lie in A
        A = min_arithmetic_set(5)  # {0, 1, 2, 3}
        V = FpMultiset.from_coords(5, [[1]] * 5)
        rep = dc.represent_in_set(FpVector(5, (1,)), V, A, 1)
        assert rep.descent_steps == 0

    def test_nonzero_coefficients_regime(self, rng):
        A = ArithmeticSet.verified(range(1, 11), 4, 11)
        V = seeded_irredundant(rng, 11, 1, r=4)
        for w in range(11):
            rep = dc.represent_in_set(FpVector(11, (w,)), V, A, 4)
            assert 0 not in rep.coefficients

    def test_out_of_span_target_rejected(self):
        A = ArithmeticSet.verified([1, 2, 3, 4], 1, 5)
        V = FpMultiset.from_coords(5, [[1, 0]] * 5)
        with pytest.raises(NotInSpanError):
            dc.represent_in_set(FpVector(5, (0, 1)), V, A, 1)

    @pytest.mark.parametrize("p,coords", [(5, (1,)), (5, (1, 2, 3)), (7, (1, 2))])
    def test_target_from_another_space_rejected(self, monkeypatch, p, coords):
        # V lives in F_5^2; the check must come before anything else runs
        A = ArithmeticSet.verified([1, 2, 3, 4], 1, 5)
        V = FpMultiset.from_coords(5, [[1, 0]] * 5)
        monkeypatch.setattr(dc, "is_fp_vanishing", None)
        with pytest.raises(PreconditionError, match="different spaces"):
            dc.represent_in_set(FpVector(p, coords), V, A, 1)
        # a zero target sums like zero coefficients in any space; still refused
        with pytest.raises(ValueError, match="different spaces"):
            dc.Representation(FpVector(p, (0,) * len(coords)), V, (0,) * V.size)

    def test_non_vanishing_multiset_rejected(self):
        A = ArithmeticSet.verified([1, 2, 3, 4], 1, 5)
        V = FpMultiset.from_coords(5, [[1, 0], [0, 1]])
        with pytest.raises(PreconditionError):
            dc.represent_in_set(FpVector(5, (1, 1)), V, A, 1)

    def test_every_span_element_representable(self, rng):
        for p in (5, 7):
            A = min_arithmetic_set(p)
            for _ in range(5):
                V = seeded_irredundant(rng, p, 2)
                dec_dim = span_dimension(V)
                for x in enumerate_vectors(p, 2):
                    try:
                        rep = dc.represent_in_set(x, V, A, 1)
                    except NotInSpanError:
                        continue
                    assert all(c in A.elements for c in rep.coefficients)
                    assert dc.brute_force_representable(x, V, A)


class TestBruteForce:
    def test_full_field_pool_spans(self):
        V = FpMultiset.from_coords(5, [[1, 0], [0, 1]])
        assert dc.brute_force_representable(FpVector(5, (3, 4)), V, range(5))

    def test_singleton_pool(self):
        V = FpMultiset.from_coords(5, [[1, 1]])
        assert dc.brute_force_representable(FpVector(5, (1, 1)), V, [1])
        assert not dc.brute_force_representable(FpVector(5, (2, 2)), V, [1])

    def test_matches_product_enumeration(self, rng):
        cases = [
            # zero vectors in V, 0 in A, repeated pool values, an empty V
            (5, 2, [[0, 0], [1, 2], [0, 0]], [1, 2]),
            (5, 2, [[1, 0], [0, 1]], [0, 3]),
            (7, 1, [[3]] * 4, [2, 2, 5]),
            (3, 3, [], [1, 2]),
        ]
        while len(cases) < 60:
            p = int(rng.choice([2, 3, 5, 7]))
            n = int(rng.integers(1, 4))
            m = int(rng.integers(0, 8))
            k = int(rng.integers(1, p + 1))
            while k > 1 and k**m > 4096:
                k -= 1
            V = random_multiset(rng, p, n, m).entries
            cases.append((p, n, [v.coords for v in V], rng.integers(0, p, size=k).tolist()))
        for p, n, rows, pool in cases:
            V = FpMultiset.from_coords(p, rows, n=n)
            reached = _reference_sums(V, pool)
            for x in enumerate_vectors(p, n):
                assert dc.brute_force_representable(x, V, pool) == (x.coords in reached)

    def test_cap_violation(self):
        V = FpMultiset.from_coords(5, [[1, 0]])
        with pytest.raises(CapExceededError):
            dc.brute_force_representable(FpVector(5, (1, 0)), V, [1], cap=10)
        assert dc.brute_force_representable(FpVector(5, (1, 0)), V, [1], cap=25)

    def test_mismatched_space_rejected(self):
        V = FpMultiset.from_coords(5, [[1, 0]])
        with pytest.raises(PreconditionError):
            dc.brute_force_representable(FpVector(7, (1, 0)), V, [1])
        with pytest.raises(PreconditionError):
            dc.brute_force_representable(FpVector(5, (1,)), V, [1])

    def test_dimension_zero(self):
        V = FpMultiset.from_coords(5, [[]], n=0)
        assert dc.brute_force_representable(FpVector(5, ()), V, [1])
        assert not dc.brute_force_representable(FpVector(5, ()), V, [])

    def test_empty_multiset(self):
        V = FpMultiset(5, 1, ())
        assert dc.brute_force_representable(FpVector(5, (0,)), V, [1])
        assert not dc.brute_force_representable(FpVector(5, (2,)), V, [1])


class TestAdditiveBasisDecompose:
    def test_dimension_zero_base_case(self):
        A = min_arithmetic_set(5)
        rep = dc.DecompositionPlan(5, 0, [[] for _ in range(5)], A, 1).decompose(FpVector(5, ()))
        assert rep.coefficients == ()

    def test_p5_line_by_brute_force(self):
        A = ArithmeticSet.verified([1, 2, 3, 4], 1, 5)
        bases = [[[1]]] * 5
        V = FpMultiset.from_coords(5, [[1]] * 5)
        plan = dc.DecompositionPlan(5, 1, bases, A, 1)
        for w in range(5):
            rep = plan.decompose(FpVector(5, (w,)))
            assert all(c in A.elements for c in rep.coefficients)
            assert dc.brute_force_representable(FpVector(5, (w,)), V, A)

    def test_p11_three_bases_nonzero(self, rng):
        A = ArithmeticSet.verified(range(1, 11), 4, 11)
        bases = []
        while len(bases) < 3:
            M = rng.integers(0, 11, size=(2, 2)).tolist()
            if span_dimension(FpMultiset.from_coords(11, M, n=2)) == 2:
                bases.append(M)
        plan = dc.DecompositionPlan(11, 2, bases, A, 4)
        for w in enumerate_vectors(11, 2):
            rep = plan.decompose(w)
            assert 0 not in rep.coefficients

    def test_too_few_bases_rejected(self):
        A = min_arithmetic_set(5)
        with pytest.raises(PreconditionError, match="ceil"):
            dc.DecompositionPlan(5, 1, [[[1]]] * 4, A, 1)

    def test_dependent_basis_rejected(self):
        A = min_arithmetic_set(5)
        bases = [[[1, 0], [2, 0]]] + [[[1, 0], [0, 1]]] * 4
        with pytest.raises(PreconditionError, match="independent"):
            dc.DecompositionPlan(5, 2, bases, A, 1)

    def test_wrong_basis_size_rejected(self):
        A = min_arithmetic_set(5)
        with pytest.raises(PreconditionError, match="vectors"):
            dc.DecompositionPlan(5, 2, [[[1, 0]]] * 5, A, 1)
        bases = [[[1, 0], [0, 1]]] * 3 + [[[0, 1, 3], [1, 0]]] + [[[1, 0], [0, 1]]]
        with pytest.raises(PreconditionError, match="basis 3 has a vector with 3 coordinates, expected 2"):
            dc.DecompositionPlan(5, 2, bases, A, 1)


def _embed(free, x_s, n):
    """The complement coordinates x_S placed on the free columns of F_p^n."""
    out = [0] * n
    for col, val in zip(free, x_s):
        out[col] = val
    return tuple(out)


def _assert_split_properties(p, n, rows, split, x):
    """x = x_T + embed(x_S), x_T in span(rows), and dim T + dim S = n."""
    basis, pivots, free = split
    assert len(basis) + len(free) == n and sorted(pivots + free) == list(range(n))
    x_s, x_t = dc._project(p, split, x)
    assert len(x_s) == len(free)
    assert tuple((a + b) % p for a, b in zip(x_t, _embed(free, x_s, n))) == x
    span = span_dimension(FpMultiset.from_coords(p, list(rows), n=n))
    assert span == len(basis)
    assert span_dimension(FpMultiset.from_coords(p, list(rows) + [x_t], n=n)) == span
    assert dc._project(p, split, x_t) == ((0,) * len(free), x_t)


class TestSpanSplit:
    """The split of F_p^n along T = span(V) that each plan level stores."""

    def test_full_span_makes_trivial_complement(self):
        split = dc._span_split(3, 2, [(1, 0), (0, 1)])
        assert len(split[0]) == 2 and split[2] == []
        assert dc._project(3, split, (2, 1)) == ((), (2, 1))

    def test_empty_multiset_gives_identity_complement(self):
        split = dc._span_split(3, 2, [])
        assert split == ([], [], [0, 1])
        assert dc._project(3, split, (2, 1)) == ((2, 1), (0, 0))

    def test_single_vector_split(self):
        split = dc._span_split(3, 3, [(2, 0, 0)])
        assert split == ([(1, 0, 0)], [0], [1, 2])
        assert dc._project(3, split, (2, 1, 2)) == ((1, 2), (2, 0, 0))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_roundtrip_property(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        n = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(0, 5))
        rows = data.draw(
            st.lists(st.tuples(*[st.integers(0, p - 1)] * n), min_size=k, max_size=k)
        )
        x = data.draw(st.tuples(*[st.integers(0, p - 1)] * n))
        _assert_split_properties(p, n, rows, dc._span_split(p, n, rows), x)

    def test_plan_levels(self):
        # (1, 0) is in every basis, so the first level's V spans a line and the
        # second level's coefficients enter the first level's T-part
        bases = [[[2, 4], [1, 0]], [[1, 0], [2, 2]], [[4, 2], [1, 0]], [[1, 0], [4, 1]], [[0, 2], [1, 0]]]
        plan = dc.DecompositionPlan(5, 2, bases, min_arithmetic_set(5), 1)
        node, n, levels = plan.root, 2, 0
        while isinstance(node, dc._Level):
            rows = node.v_rows
            assert node.split == dc._span_split(5, n, rows)
            for x in itertools.product(range(5), repeat=n):
                _assert_split_properties(5, n, rows, node.split, x)
            node, n, levels = node.child, len(node.split[2]), levels + 1
        assert (n, levels) == (0, 2)
        for w in enumerate_vectors(5, 2):
            assert plan.decompose(w).x == w  # Representation re-checks the sum


def _shared_vector_bases(rng, p, n):
    """p random bases of F_p^n that all contain one shared nonzero vector."""
    shared = [0] * n
    while not any(shared):
        shared = [int(c) for c in rng.integers(0, p, size=n)]
    bases = []
    while len(bases) < p:
        rows = [shared] + rng.integers(0, p, size=(n - 1, n)).tolist()
        if span_dimension(FpMultiset.from_coords(p, rows, n=n)) == n:
            bases.append(rows)
    return bases


def _plan_depth(plan):
    node, depth = plan.root, 0
    while isinstance(node, dc._Level):
        node, depth = node.child, depth + 1
    return depth


_ONE_AND_TWO_LEVELS = pytest.mark.parametrize(
    "bases,depth",
    [
        ([[[1, 2], [0, 1]], [[2, 1], [1, 0]], [[1, 1], [3, 0]], [[0, 3], [4, 1]], [[2, 0], [1, 4]]], 1),
        # (1, 0) is in every basis, so the first V spans a line
        ([[[2, 4], [1, 0]], [[1, 0], [2, 2]], [[4, 2], [1, 0]], [[1, 0], [4, 1]], [[0, 2], [1, 0]]], 2),
    ],
    ids=["one_level", "p5n2two_levels"],
)


class TestPlanLevels:
    """Plans whose first V spans less than F_p^n, so the recursion runs."""

    @pytest.mark.parametrize("p,n", [(5, 2), (5, 3), (7, 2), (7, 3)])
    def test_multi_level_plans_decompose_every_target(self, p, n):
        # draw plans until three of them recurse; every plan drawn is checked
        rng = np.random.default_rng(100 * p + n)
        A = min_arithmetic_set(p)
        depths = []
        while sum(d >= 2 for d in depths) < 3:
            assert len(depths) < 10, depths
            bases = _shared_vector_bases(rng, p, n)
            plan = dc.DecompositionPlan(p, n, bases, A, 1)
            depths.append(_plan_depth(plan))
            rows = [tuple(v) for basis in bases for v in basis]
            for w in ref.points(p, n):
                coeffs = plan.decompose(FpVector(p, w)).coefficients
                assert all(c in A.elements for c in coeffs)
                assert ref.combination(p, coeffs, rows) == w

    @_ONE_AND_TWO_LEVELS
    def test_decompose_makes_no_binomial_products(self, monkeypatch, bases, depth):
        # every level's V is certified vanishing once, when the plan is built
        plan = dc.DecompositionPlan(5, 2, bases, min_arithmetic_set(5), 1)
        assert _plan_depth(plan) == depth
        calls = []
        multiply = dc._kernels.fp_binomial_power

        def counted(*args):
            calls.append(1)
            return multiply(*args)

        monkeypatch.setattr(dc._kernels, "fp_binomial_power", counted)
        for w in enumerate_vectors(5, 2):
            plan.decompose(w)
        assert calls == []

    @_ONE_AND_TWO_LEVELS
    def test_fp_vectors_only_at_the_boundary(self, monkeypatch, bases, depth):
        # a plan wraps each pool entry once, for the Representation that
        # decompose returns; the levels and the descent run on coordinate tuples
        built = []
        check = FpVector.__post_init__

        def counted(self):
            built.append(self.coords)
            check(self)

        targets = list(enumerate_vectors(5, 2))
        monkeypatch.setattr(FpVector, "__post_init__", counted)
        plan = dc.DecompositionPlan(5, 2, bases, min_arithmetic_set(5), 1)
        assert _plan_depth(plan) == depth
        assert len(built) == plan.pool.size
        built.clear()
        for w in targets:
            plan.decompose(w)
        assert built == []


class TestSizeBound:
    def test_random_irredundant_instances(self, rng):
        for _ in range(10):
            p = int(rng.choice([3, 5, 7]))
            n = int(rng.integers(1, 3))
            V = seeded_irredundant(rng, p, n)
            s = smallest_arithmetic_size(p)
            assert s**V.size >= p ** span_dimension(V)
