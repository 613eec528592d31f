from __future__ import annotations

import itertools

import numpy as np
import pytest

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


class TestEpsilonRelation:
    def test_p_copies_prefers_single_step(self):
        V = FpMultiset.from_coords(5, [[1]] * 5)
        rel = dc.find_epsilon_relation(V, 1, [1] * 5, 0)
        assert rel.eps_w == 1
        assert sorted(rel.eps[1:]) == [0, 0, 0, 1]

    def test_f2_pair_structure(self):
        V = FpMultiset.from_coords(2, [[1, 0], [1, 0], [0, 1], [0, 1]])
        rel = dc.find_epsilon_relation(V, 1, [1] * 4, 0)
        assert rel.eps_w == 1
        # the relation e1 = e1 uses only the duplicate copy
        assert rel.eps[1] == 1 and rel.eps[2] == 0 and rel.eps[3] == 0

    def test_constructor_reverifies(self):
        V = FpMultiset.from_coords(5, [[1], [1]])
        with pytest.raises(InvariantViolationError):
            dc.EpsilonRelation(V, 0, 1, (0, 2), (1, 1))

    def test_non_irredundant_input_detected(self):
        # a basis never vanishes, so no relation can exist
        V = FpMultiset.from_coords(5, [[1, 0], [0, 1]])
        with pytest.raises(PreconditionError):
            dc.find_epsilon_relation(V, 1, [1, 1], 0)

    def test_random_relations_reverify(self, rng):
        for _ in range(15):
            p = int(rng.choice([3, 5, 7]))
            n = int(rng.integers(1, 3))
            V = seeded_irredundant(rng, p, n)
            b = [int(rng.integers(1, p)) for _ in range(V.size)]
            w = int(rng.integers(V.size))
            rel = dc.find_epsilon_relation(V, 1, b, w)
            assert 1 <= rel.eps_w <= 1
            assert all(-1 <= e <= 1 for e in rel.eps)


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
        rep = dc.additive_basis_decompose(FpVector(5, ()), [[] for _ in range(5)], A, 1)
        assert rep.coefficients == ()

    def test_p5_line_by_brute_force(self):
        A = ArithmeticSet.verified([1, 2, 3, 4], 1, 5)
        bases = [[[1]]] * 5
        V = FpMultiset.from_coords(5, [[1]] * 5)
        for w in range(5):
            rep = dc.additive_basis_decompose(FpVector(5, (w,)), bases, A, 1)
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

    def test_plan_reuse_matches_one_shot(self, rng):
        A = min_arithmetic_set(5)
        bases = []
        while len(bases) < 5:
            M = rng.integers(0, 5, size=(2, 2)).tolist()
            if span_dimension(FpMultiset.from_coords(5, M, n=2)) == 2:
                bases.append(M)
        plan = dc.DecompositionPlan(5, 2, bases, A, 1)
        w = FpVector(5, (3, 2))
        assert plan.decompose(w).coefficients == dc.additive_basis_decompose(w, bases, A, 1).coefficients


class TestSizeBound:
    def test_p_copies(self):
        V = FpMultiset.from_coords(5, [[1]] * 5)
        assert dc.verify_size_bound(V, 2)

    def test_degenerate_s_equals_p(self):
        V = FpMultiset.from_coords(5, [[1, 0]] * 5 + [[0, 1]] * 5)
        assert dc.verify_size_bound(V, 5)

    def test_random_irredundant_instances(self, rng):
        for _ in range(10):
            p = int(rng.choice([3, 5, 7]))
            n = int(rng.integers(1, 3))
            V = seeded_irredundant(rng, p, n)
            s = smallest_arithmetic_size(p)
            assert dc.verify_size_bound(V, s)
            assert s**V.size >= p ** span_dimension(V)

    def test_rejects_tiny_s(self):
        V = FpMultiset.from_coords(5, [[1]] * 5)
        with pytest.raises(ValueError):
            dc.verify_size_bound(V, 1)
