from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpvanish import _kernels as K
from fpvanish import config
from fpvanish import group_ring as gr
from fpvanish.errors import CapExceededError, InvariantViolationError, PreconditionError
from fpvanish.fp_core import FpMultiset, FpVector, enumerate_vectors

import reference as ref
from conftest import cyclic_garbage, random_multiset


def elt(p, n, rng):
    return rng.integers(0, p, size=p**n)


def fp_product(V, r=1, cap=None):
    """The product over V of (1 - g^v)^r as a raw residue table at the width for p."""
    return gr._fp_product([v.coords for v in V.entries], r, V.p, V.n, cap)


class TestRingAxioms:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([(2, 2), (3, 1), (3, 2), (5, 1)]), st.integers(0, 2**31 - 1))
    def test_convolution_commutes_and_associates(self, pn, seed):
        p, n = pn
        rng = np.random.default_rng(seed)
        a, b, c = (elt(p, n, rng) for _ in range(3))

        def mul(x, y):
            return ref.fp_mul(x, y, p, n)

        assert np.array_equal(mul(a, b), mul(b, a))
        assert np.array_equal(mul(mul(a, b), c), mul(a, mul(b, c)))

    def test_unit_is_identity(self, rng):
        a = elt(5, 2, rng)
        one = fp_product(FpMultiset(5, 2, ()))
        assert np.array_equal(ref.fp_mul(a, one, 5, 2), a)

    def test_binomial_matches_general_product(self, rng):
        p, n = 3, 2
        a = elt(p, n, rng)
        v = (1, 2)
        factor = ref.fp_binomial(p, n, v)
        want = ref.fp_mul(a, factor, p, n)
        assert np.array_equal(K.fp_binomial_power(a, (p,) * n, v, 1, p), want)
        want = ref.fp_mul(ref.fp_mul(want, factor, p, n), factor, p, n)
        assert np.array_equal(K.fp_binomial_power(a, (p,) * n, v, 3, p), want)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_binomial_pth_power_vanishes(self, p):
        one = fp_product(FpMultiset(p, 2, ()))
        for v in enumerate_vectors(p, 2):
            if v.is_zero():
                continue
            assert not K.fp_binomial_power(one, (p, p), v.coords, p, p).any()


class TestBinomialProductFp:
    def test_p_copies_vanish(self):
        for p in (2, 3, 5):
            V = FpMultiset.from_coords(p, [[1, 0]] * p)
            assert not fp_product(V).any()

    def test_single_factor_support(self, rng):
        V = FpMultiset.from_coords(5, [[1, 0]])
        prod = fp_product(V)
        assert prod.shape == (25,) and prod.dtype == gr._coef_dtype(5)
        assert np.nonzero(prod)[0].tolist() == [0, 5]
        assert prod[[0, 5]].tolist() == [1, 4]
        # raw residue tables in [0, p) equal to the reference product
        for _ in range(10):
            p, n = int(rng.choice([2, 3, 5])), int(rng.integers(0, 3))
            V = random_multiset(rng, p, n, int(rng.integers(0, 4)))
            want = fp_product(FpMultiset(p, n, ()))
            for v in V.entries:
                want = ref.fp_mul(want, ref.fp_binomial(p, n, v.coords), p, n)
            prod = fp_product(V)
            assert prod.shape == (p**n,) and prod.dtype == gr._coef_dtype(p)
            assert prod.min() >= 0 and prod.max() < p
            assert np.array_equal(prod, want)

    @pytest.mark.parametrize(
        "p,width", [(2, np.int8), (127, np.int8), (131, np.int16), (32749, np.int16), (32771, np.int32)]
    )
    def test_residue_tables_at_the_width_for_p(self, rng, p, width):
        # the product is computed and returned at the width for p
        assert gr._fp_unit(p, 1).dtype == width
        V = FpMultiset.from_coords(p, [[int(c)] for c in rng.integers(1, p, size=3)])
        want = np.zeros(p, dtype=np.int64)
        want[0] = 1
        for v in V.entries:
            want = K.fp_binomial_power(want, (p,), v.coords, 1, p)
        prod = fp_product(V)
        assert prod.dtype == width and np.array_equal(prod, want)

    def test_p_minus_one_copies_give_all_ones(self):
        V = FpMultiset.from_coords(5, [[1]] * 4)
        prod = fp_product(V)
        assert prod.dtype == gr._coef_dtype(5) and prod.tolist() == [1] * 5

    def test_r_range_validated(self):
        V = FpMultiset.from_coords(5, [[1]])
        with pytest.raises(ValueError):
            fp_product(V, r=5)

    def test_cap_violation(self):
        V = FpMultiset.from_coords(2, [[1] * 6])
        with pytest.raises(CapExceededError):
            fp_product(V, cap=32)


class TestVanishing:
    def test_olson_threshold(self, rng):
        for p, n in ((2, 2), (3, 2), (5, 1)):
            size = (p - 1) * n + 1
            for _ in range(20):
                V = random_multiset(rng, p, n, size)
                assert gr.is_fp_vanishing(V, 1)

    def test_power_threshold(self, rng):
        p, n, r = 5, 2, 2
        size = -(-((p - 1) * n + 1) // r)
        for _ in range(20):
            V = random_multiset(rng, p, n, size)
            assert gr.is_fp_vanishing(V, r)

    def test_single_nonzero_vector_does_not_vanish(self):
        for p in (3, 5):
            V = FpMultiset.from_coords(p, [[1, 1]])
            assert not gr.is_fp_vanishing(V)


def _unit_vectors_repeated(p: int, n: int, copies: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n) for _ in range(copies)]


def _count_multiplies(monkeypatch) -> list:
    calls = []
    multiply = gr._kernels.fp_binomial_power

    def counted(*args):
        calls.append(1)
        return multiply(*args)

    monkeypatch.setattr(gr._kernels, "fp_binomial_power", counted)
    return calls


class TestNilpotencyBound:
    """A product of more than n(p-1) binomials over F_p is zero (the
    augmentation ideal I has I^(n(p-1)+1) = 0); _fp_product returns it
    without multiplying, and at exactly n(p-1) it must still multiply."""

    CASES = [(p, n, r) for p in (2, 3, 5, 7) for n in range(4) for r in sorted({1, p - 1})]

    @pytest.mark.parametrize("p,n,r", CASES)
    def test_tight_at_n_times_p_minus_1(self, p, n, r):
        # each e_i (p-1)/r times: r|V| = n(p-1) and the product is nonzero
        V = FpMultiset.from_coords(p, _unit_vectors_repeated(p, n, (p - 1) // r), n=n)
        assert r * V.size == n * (p - 1)
        want = fp_product(FpMultiset(p, n, ()))
        for v in V.entries:
            for _ in range(r):
                want = ref.fp_mul(ref.fp_binomial(p, n, v.coords), want, p, n)
        got = fp_product(V, r)
        assert got.dtype == gr._coef_dtype(p) and got.shape == (p**n,)
        assert got.any() and np.array_equal(got, want)
        assert not gr.is_fp_vanishing(V, r)

    @pytest.mark.parametrize("p,n,r", CASES)
    def test_zero_past_the_bound_without_multiplying(self, monkeypatch, p, n, r):
        # the smallest |V| with r|V| > n(p-1): n(p-1) + 1 when r = 1
        size = n * (p - 1) // r + 1
        rng = np.random.default_rng(p * 100 + n * 10 + r)
        calls = _count_multiplies(monkeypatch)
        tight_plus_one = _unit_vectors_repeated(p, n, (p - 1) // r) + [[1] * n]
        for V in (FpMultiset.from_coords(p, tight_plus_one, n=n), random_multiset(rng, p, n, size, nonzero=n > 0)):
            assert V.size == size and r * (size - 1) <= n * (p - 1) < r * size
            got = fp_product(V, r)
            assert got.dtype == gr._coef_dtype(p) and got.shape == (p**n,)
            assert not got.any()
            assert gr.is_fp_vanishing(V, r)
        assert calls == []

    def test_shortcut_keeps_the_caps_and_exponent_checks(self, monkeypatch):
        calls = _count_multiplies(monkeypatch)
        V = FpMultiset.from_coords(2, [[1] * 6] * 7)
        with pytest.raises(CapExceededError):
            fp_product(V, cap=32)
        with pytest.raises(ValueError):
            gr.is_fp_vanishing(FpMultiset.from_coords(3, [[1]] * 3), r=3)
        assert calls == []


class TestExtractIrredundant:
    def test_requires_vanishing_input(self):
        V = FpMultiset.from_coords(5, [[1, 0]])
        with pytest.raises(PreconditionError):
            gr.extract_irredundant_fp(V)

    def test_fixed_point_on_irredundant_input(self):
        V = FpMultiset.from_coords(3, [[1, 0]] * 3)
        assert gr.extract_irredundant_fp(V) == V

    def test_two_p_copies_shrink_to_p(self):
        for p in (2, 3, 5):
            V = FpMultiset.from_coords(p, [[1]] * (2 * p))
            W = gr.extract_irredundant_fp(V)
            assert W.size == p

    def test_extra_vector_removed(self):
        V = FpMultiset.from_coords(3, [[1, 0]] * 3 + [[1, 1]])
        W = gr.extract_irredundant_fp(V)
        assert [v.coords for v in W.entries] == [(1, 0)] * 3

    def test_output_is_irredundant(self, rng):
        for _ in range(15):
            p = int(rng.choice([2, 3, 5]))
            n = int(rng.integers(1, 3))
            V = random_multiset(rng, p, n, (p - 1) * n + 1, nonzero=True)
            W = gr.extract_irredundant_fp(V)
            assert gr.is_fp_irredundant(W)

    def test_lowered_cap_refuses(self):
        V = FpMultiset.from_coords(3, [[1, 0, 0]] * 3)
        with pytest.raises(CapExceededError, match="p\\^n = 3\\^3 = 27 exceeds cap 10"):
            gr.extract_irredundant_fp(V, cap=10)

    def test_raised_cap_answers(self, monkeypatch):
        monkeypatch.setattr(config, "RING_SIZE_CAP", 4)
        V = FpMultiset.from_coords(3, [[1, 0, 0]] * 4)
        with pytest.raises(CapExceededError):
            gr.extract_irredundant_fp(V)
        assert gr.extract_irredundant_fp(V, cap=100) == FpMultiset.from_coords(3, [[1, 0, 0]] * 3)


def _greedy_reference(entries, r, p, n):
    """The one-pass greedy over coordinate tuples that rebuilds the product for every trial removal."""
    kept = list(range(len(entries)))
    for i in range(len(entries)):
        if i not in kept:
            continue
        trial = [j for j in kept if j != i]
        W = FpMultiset.from_coords(p, [entries[j] for j in trial], n=n)
        if gr.is_fp_vanishing(W, r):
            kept = trial
    return kept


def _irredundant_reference(V, r):
    """Vanishing, and no leave-one-out sub-multiset vanishes."""
    if not gr.is_fp_vanishing(V, r):
        return False
    for i in range(V.size):
        if gr.is_fp_vanishing(FpMultiset(V.p, V.n, V.entries[:i] + V.entries[i + 1 :]), r):
            return False
    return True


def _greedy_family():
    """Seeded multisets with zero vectors, repeats, r > 1 and every small m."""
    rng = np.random.default_rng(20211)
    out = []
    for _ in range(400):
        p = int(rng.choice([2, 3, 5, 7]))
        n = int(rng.integers(1, 3))
        r = int(rng.integers(1, p))
        m = int(rng.integers(0, 3)) if rng.random() < 0.2 else int(rng.integers(3, 15))
        # a few distinct vectors, the zero vector among them now and then,
        # so that entries repeat and contexts vanish early
        pool = [tuple(rng.integers(0, p, size=n).tolist()) for _ in range(int(rng.integers(1, 5)))]
        if rng.random() < 0.2:
            pool.append((0,) * n)
        rows = [pool[int(k)] for k in rng.integers(0, len(pool), size=m)]
        out.append((FpMultiset.from_coords(p, rows, n=n), r))
    return out


class TestDivideAndConquerGreedy:
    def test_family_covers_the_edge_cases(self):
        family = _greedy_family()
        assert {V.size for V, _ in family} >= {0, 1, 2}
        assert any(r > 1 for _, r in family)
        assert any(v.is_zero() for V, _ in family for v in V.entries)
        assert any(not gr.is_fp_vanishing(V, r) for V, r in family)

    def test_matches_reference(self):
        for V, r in _greedy_family():
            entries = [v.coords for v in V.entries]
            kept = gr._greedy_irredundant_indices(entries, r, V.p, V.n)
            assert kept == _greedy_reference(entries, r, V.p, V.n), (V, r)
            assert gr.is_fp_irredundant(V, r) == _irredundant_reference(V, r), (V, r)

    def test_irredundant_verdict_after_extraction(self):
        for V, r in _greedy_family():
            if gr.is_fp_vanishing(V, r):
                W = gr.extract_irredundant_fp(V, r)
                assert gr.is_fp_irredundant(W, r) and _irredundant_reference(W, r)

    @pytest.mark.parametrize("p,n,m", [(7, 2, 8), (7, 2, 16), (3, 2, 11), (5, 1, 2), (2, 3, 1)])
    def test_multiplies_within_m_log_m(self, monkeypatch, p, n, m):
        calls = _count_multiplies(monkeypatch)
        rng = np.random.default_rng(m)
        entries = [v.coords for v in random_multiset(rng, p, n, m, nonzero=True).entries]
        kept = gr._greedy_irredundant_indices(entries, 1, p, n)
        assert len(calls) <= m * math.ceil(math.log2(m))
        monkeypatch.undo()
        assert kept == _greedy_reference(entries, 1, p, n)

    def test_leaves_no_reference_cycle(self):
        entries = [v.coords for v in random_multiset(np.random.default_rng(3), 3, 2, 9, nonzero=True).entries]
        assert cyclic_garbage(lambda: gr._greedy_irredundant_indices(entries, 1, 3, 2)) == 0


def _one(p: int) -> np.ndarray:
    return np.eye(p - 1, 1, dtype=np.int64)[:, 0]


class TestCyclotomicInt:
    """Elements of Z[w] in the power basis, as the kernels' w^t shift sees them."""

    def test_all_root_powers_sum_to_zero(self):
        for p in (2, 3, 5, 7):
            acc = sum(K.lambda_shift_rows(_one(p), t, p) for t in range(p))
            assert not acc.any()

    def test_root_has_order_p(self):
        for p in (3, 5, 7):
            prod = _one(p)
            for _ in range(p):
                prod = K.lambda_shift_rows(prod, 1, p)
            assert prod.tolist() == _one(p).tolist()

    def test_root_shift_is_multiplication(self, rng):
        for p in (3, 5, 7):
            for _ in range(10):
                c = rng.integers(-9, 10, size=p - 1)
                t = int(rng.integers(0, p))
                assert tuple(K.lambda_shift_rows(c, t, p).tolist()) == ref.zw_mul(c, ref.root_power(p, t), p)

    def test_ring_laws(self, rng):
        p = 5
        a, b, c = (tuple(rng.integers(-5, 6, size=p - 1).tolist()) for _ in range(3))

        def mul(x, y):
            return ref.zw_mul(x, y, p)

        assert ref.zw_add(a, b) == ref.zw_add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, ref.zw_add(b, c)) == ref.zw_add(mul(a, b), mul(a, c))

    def test_exact_zero_test(self):
        c = np.array([1, 1, 1, 1])
        d = K.lambda_shift_rows(_one(5), 4, 5)
        assert not (c + d).any()


class TestBinomialProductCyc:
    def test_untwisted_single_factor(self):
        V = FpMultiset.from_coords(5, [[1, 0]])
        prod = gr.binomial_product_cyc(V, (0,))
        assert prod.shape == (4, 25) and prod.dtype == np.int64
        assert np.nonzero(prod.any(axis=0))[0].tolist() == [0, 5]
        assert prod[:, 0].tolist() == [1, 0, 0, 0]
        assert prod[:, 5].tolist() == [-1, 0, 0, 0]

    def test_p2_twisted_pair_vanishes(self):
        V = FpMultiset.from_coords(2, [[1], [1]])
        assert not gr.binomial_product_cyc(V, (0, 1)).any()
        assert gr.binomial_product_cyc(V, (0, 0)).any()

    def test_p3_twisted_triple_vanishes(self):
        V = FpMultiset.from_coords(3, [[1], [1], [1]])
        assert not gr.binomial_product_cyc(V, (0, 1, 2)).any()

    def test_twists_must_be_total(self):
        V = FpMultiset.from_coords(3, [[1], [1]])
        with pytest.raises(ValueError):
            gr.binomial_product_cyc(V, (0,))

    def test_object_promotion_stays_exact(self, monkeypatch):
        V = FpMultiset.from_coords(3, [[1], [2], [1], [2]])
        t = (0, 1, 2, 1)
        expected = gr.binomial_product_cyc(V, t, 2)
        monkeypatch.setattr(config, "INT64_SAFE_BOUND", 4)
        promoted = gr.binomial_product_cyc(V, t, 2)
        assert expected.dtype == np.int64 and promoted.dtype == object
        assert promoted.shape == expected.shape == (2, 3)
        assert np.array_equal(promoted.astype(np.int64), expected)

    def test_coefficients_within_two_to_the_factor_count(self, rng):
        # a product of k = r|V| binomials is a signed sum of at most 2^k roots
        # of unity per group element, and roots have entries in {-1, 0, 1}
        for _ in range(60):
            p = int(rng.choice([2, 3, 5, 7]))
            n = int(rng.integers(1, 3))
            r = int(rng.integers(1, p))
            V = random_multiset(rng, p, n, int(rng.integers(1, 6)))
            if rng.random() < 0.5:
                V = FpMultiset(p, n, V.entries[:1] * V.size)
            twists = [int(x) for x in rng.integers(0, p, size=V.size)]
            if rng.random() < 0.5:
                twists = twists[:1] * V.size
            table = gr.binomial_product_cyc(V, twists, r)
            assert table.shape == (p - 1, p**n) and table.dtype == np.int64
            assert np.abs(table).max() <= 2 ** (r * V.size)

    @pytest.mark.parametrize("m", [1, 5, 6, 13, 14, 29, 30, 60, 61, 62, 63, 64, 70])
    def test_bound_is_reached_and_stays_exact(self, m):
        # p = 2, v = 0, t = 1: each factor is 1 - (-1) = 2, so the product is 2^m
        V = FpMultiset.from_coords(2, [[0]] * m)
        table = gr.binomial_product_cyc(V, [1] * m)
        assert table.shape == (1, 2) and table.tolist() == [[2**m, 0]]
        assert table.dtype == (np.int64 if 3 * 2**m < config.INT64_SAFE_BOUND else object)


class TestComplexVanishing:
    def test_too_few_factors_never_vanish(self):
        # fewer than p nonzero factors cannot cover the p points of F_p
        for p in (3, 5):
            V = FpMultiset.from_coords(p, [[1]] * (p - 1))
            assert gr.is_c_vanishing(V) is None

    def test_empty_multiset_is_unit(self):
        V = FpMultiset(3, 1, ())
        assert gr.is_c_vanishing(V) is None

    def test_witness_found_and_least(self):
        V = FpMultiset.from_coords(3, [[1], [1], [1]])
        assert gr.is_c_vanishing(V) == (0, 1, 2)

    def test_methods_agree_exhaustively(self, rng):
        for _ in range(25):
            p = int(rng.choice([2, 3]))
            n = int(rng.integers(1, 3))
            V = random_multiset(rng, p, n, int(rng.integers(1, 4)))
            a = gr.product_twist_verdicts(V, 1)
            b = gr.cover_twist_verdicts(V)
            assert np.array_equal(a, b)
            hits = np.nonzero(a)[0]
            want = gr.twist_from_index(p, V.size, int(hits[0])) if hits.size else None
            assert gr.is_c_vanishing(V) == want

    def test_exponent_does_not_change_complex_vanishing(self, rng):
        # the complex group algebra has no nilpotents
        for _ in range(10):
            V = random_multiset(rng, 3, 1, int(rng.integers(1, 4)))
            assert np.array_equal(
                gr.product_twist_verdicts(V, 1), gr.product_twist_verdicts(V, 2)
            )

    def test_zero_vector_entry_vanishes_with_zero_twist(self):
        V = FpMultiset.from_coords(3, [[0], [1]])
        t = gr.is_c_vanishing(V)
        assert t is not None and t[0] == 0

    @pytest.mark.parametrize("r", [0, 3, -1])
    def test_exponent_checked_before_any_search(self, r):
        # [[1],[1],[1]] mod 3 has covering twists, so no path may answer quietly
        V = FpMultiset.from_coords(3, [[1], [1], [1]])
        for call in (
            lambda: gr.product_twist_verdicts(V, r),
            lambda: gr.is_c_vanishing(V, r),
            lambda: gr.is_c_irredundant(V, r),
            lambda: gr.binomial_product_cyc(V, (0, 1, 2), r),
            lambda: fp_product(V, r),
            lambda: gr.is_fp_irredundant(V, r),
        ):
            with pytest.raises(ValueError, match=f"got r={r} for p=3"):
                call()
        with pytest.raises(ValueError, match="exponent r"):
            gr.is_c_vanishing(FpMultiset(3, 1, ()), r)

    def test_object_path_matches_int64(self, monkeypatch, rng):
        cases = []
        for _ in range(12):
            p = int(rng.choice([2, 3, 5]))
            V = random_multiset(rng, p, int(rng.integers(1, 3)), int(rng.integers(1, 4)))
            r = int(rng.integers(1, p))
            cases.append((V, r, gr.product_twist_verdicts(V, r)))
        monkeypatch.setattr(config, "INT64_SAFE_BOUND", 4)
        for V, r, want in cases:
            assert np.array_equal(gr.product_twist_verdicts(V, r), want)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_zero_dimensional_space(self, p):
        # F_p^0 is one point; every entry is the zero vector
        for m in range(1, 4):
            V = FpMultiset(p, 0, (FpVector(p, ()),) * m)
            for r in range(1, p):
                assert np.array_equal(gr.product_twist_verdicts(V, r), gr.cover_twist_verdicts(V))

    def test_twist_cap(self):
        V = FpMultiset.from_coords(5, [[1]] * 6)
        with pytest.raises(CapExceededError):
            gr.is_c_vanishing(V, cap=100)

    def test_failed_certification_raises(self, monkeypatch):
        # the cover oracle's witness (0, 1, 2) meets a product that does not vanish
        V = FpMultiset.from_coords(3, [[1], [1], [1]])
        monkeypatch.setattr(gr, "binomial_product_cyc", lambda V, t, r=1, cap=None: ref.cyc_unit(V.p, V.n))
        with pytest.raises(InvariantViolationError, match="certification"):
            gr.is_c_vanishing(V)

    def test_twist_cap_is_not_the_ring_cap(self):
        # 2^2 twists fit the cap of 10; the 2^4-point ring table is certified under the default
        V = FpMultiset.from_coords(2, [[1, 0, 0, 0]] * 2)
        assert gr.is_c_vanishing(V, 1, cap=10) == (0, 1)


class TestComplexIrredundance:
    def test_minimal_cover_is_irredundant(self):
        V = FpMultiset.from_coords(3, [[1], [1], [1]])
        assert gr.is_c_irredundant(V) is not None

    def test_redundant_family_is_not(self):
        V = FpMultiset.from_coords(2, [[1], [1], [1]])
        # any vanishing witness leaves one hyperplane duplicated
        assert gr.is_c_vanishing(V) is not None
        assert gr.is_c_irredundant(V) is None

    def test_leaves_no_reference_cycle(self):
        for rows in ([[1], [1], [1]], [[1], [1], [1], [1]]):
            V = FpMultiset.from_coords(3, rows)
            assert cyclic_garbage(lambda: gr.is_c_irredundant(V)) == 0

    def test_scaling_transport(self, rng):
        for _ in range(10):
            p = int(rng.choice([2, 3]))
            V = random_multiset(rng, p, 2, int(rng.integers(1, 4)), nonzero=True)
            scalars = [int(rng.integers(1, p)) for _ in range(V.size)]
            from fpvanish.fp_core import scale_multiset

            W = scale_multiset(V, scalars)
            t = gr.is_c_vanishing(V)
            if t is not None:
                # scaling v by a moves its hyperplane <x, v> = -t to <x, av> = -at
                moved = [a * x % p for a, x in zip(scalars, t)]
                assert not gr.binomial_product_cyc(W, moved).any()


def _product(p, n, rows, twists):
    return gr.binomial_product_cyc(FpMultiset.from_coords(p, rows, n=n), twists)


def _hyperplane(p, n, v, t):
    return {x for x in ref.points(p, n) if sum(a * b for a, b in zip(x, v)) % p == (-t) % p}


class TestFourier:
    """Kernel products against the reference transform: the zero set of
    (1 - w^t g^v) is the hyperplane <x, v> = -t."""

    def test_unit_has_empty_zero_set(self):
        assert ref.fourier_zero_set(_product(3, 2, [], ()), 3, 2) == []

    def test_single_twisted_binomial_gives_hyperplane(self):
        p, n, v, t = 3, 2, (1, 2), 1
        zeros = set(ref.fourier_zero_set(_product(p, n, [v], (t,)), p, n))
        assert zeros == _hyperplane(p, n, v, t)

    def test_product_zero_set_is_union_of_hyperplanes(self, rng):
        p, n = 3, 2
        for _ in range(10):
            size = int(rng.integers(1, 4))
            V = random_multiset(rng, p, n, size, nonzero=True)
            twists = tuple(int(x) for x in rng.integers(0, p, size=size))
            zeros = set(ref.fourier_zero_set(gr.binomial_product_cyc(V, twists), p, n))
            assert zeros == set().union(*(_hyperplane(p, n, v.coords, t) for v, t in zip(V.entries, twists)))

    def test_transform_multiplicativity(self, rng):
        # convolution becomes pointwise product after the transform
        p, n = 3, 1
        for _ in range(5):
            t1, t2, c1, c2 = (int(x) for x in rng.integers(0, p, size=4))
            h1, h2 = _product(p, n, [[c1]], (t1,)), _product(p, n, [[c2]], (t2,))
            h12 = _product(p, n, [[c1], [c2]], (t1, t2))
            assert h12.tolist() == ref.cyc_mul(h1, h2, p, n).tolist()
            f1, f2, f12 = (ref.fourier_transform(h, p, n) for h in (h1, h2, h12))
            assert all(ref.zw_mul(a, b, p) == ab for a, b, ab in zip(f1, f2, f12))

    def test_object_path_matches_int64(self, monkeypatch, rng):
        cases = []
        for _ in range(8):
            p, n = int(rng.choice([2, 3, 5])), int(rng.integers(1, 3))
            V = random_multiset(rng, p, n, int(rng.integers(1, 4)))
            twists = tuple(int(x) for x in rng.integers(0, p, size=V.size))
            h = gr.binomial_product_cyc(V, twists)
            cases.append((V, twists, h, ref.fourier_zero_set(h, p, n)))
        monkeypatch.setattr(config, "INT64_SAFE_BOUND", 4)
        for V, twists, want, zeros in cases:
            got = gr.binomial_product_cyc(V, twists)
            assert got.dtype == object
            assert np.array_equal(got.astype(np.int64), want)
            assert ref.fourier_zero_set(got, V.p, V.n) == zeros


def _irredundant_twist_reference(V: FpMultiset):
    """The per-twist numpy loop is_c_irredundant used before its bitmask form."""
    from fpvanish.fp_core import coords_array, coords_matrix

    p, n, m = V.p, V.n, V.size
    if m == 0:
        return None
    size = p**n
    ips = (coords_matrix(p, n) @ coords_array(V).T) % p
    for idx in range(p**m):
        t = gr.twist_from_index(p, m, idx)
        masks = [ips[:, i] == ((-t[i]) % p) for i in range(m)]
        counts = np.zeros(size, dtype=np.int64)
        for mk in masks:
            counts += mk
        if counts.min() == 0:
            continue
        if all((mk & (counts == 1)).any() for mk in masks):
            return t
    return None


def _shared_direction_rows(rng, p, n, m, zero_scalar=False):
    """Random rows of which many are multiples of the first: parallel
    hyperplanes are what make covers.  With `zero_scalar` a multiple may be 0."""
    rows = [tuple(int(c) for c in rng.integers(0, p, size=n)) for _ in range(m)]
    if m >= 2 and rng.random() < 0.6:
        for k in range(1, m):
            if rng.random() < 0.7:
                a = int(rng.integers(0 if zero_scalar else 1, p))
                rows[k] = tuple((a * c) % p for c in rows[0])
    return rows


class TestComplexIrredundanceReference:
    def test_matches_per_twist_loop(self, rng):
        witnesses = 0
        for _ in range(150):
            p = int(rng.choice([2, 3, 5]))
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, 6 if p < 5 else 5))
            V = FpMultiset.from_coords(p, _shared_direction_rows(rng, p, n, m), n=n)
            want = _irredundant_twist_reference(V)
            assert gr.is_c_irredundant(V) == want
            witnesses += want is not None
        assert witnesses >= 10

    @pytest.mark.parametrize(
        "p, n, max_m",
        [(7, 1, 4), (7, 2, 4), (3, 0, 5), (5, 0, 4), (2, 1, 8), (2, 2, 8), (2, 3, 8)],
    )
    def test_least_twist_matches_per_twist_loop(self, rng, p, n, max_m):
        # zero rows, repeated rows and zero multiples included; the search
        # must return the same least twist the full scan finds
        witnesses = 0
        for _ in range(40):
            m = int(rng.integers(1, max_m + 1))
            rows = _shared_direction_rows(rng, p, n, m, zero_scalar=True)
            if rng.random() < 0.3:
                rows[int(rng.integers(0, m))] = (0,) * n
            if m >= 2 and rng.random() < 0.3:
                rows[-1] = rows[0]
            V = FpMultiset.from_coords(p, rows, n=n)
            want = _irredundant_twist_reference(V)
            assert gr.is_c_irredundant(V) == want
            witnesses += want is not None
        assert witnesses >= 1


def _product_verdicts_reference(V: FpMultiset, r: int, dtype) -> np.ndarray:
    """The full-table loop product_twist_verdicts used before it grew its
    table one entry at a time: one (p-1, p^n) + (p,)*|V| table, and entry i
    with twist t multiplies the slice that has t on axis i + 2, in place.
    `dtype` is int64 or object, never the width rule under test."""
    from fpvanish import _kernels

    p, n, m = V.p, V.n, V.size
    if m == 0:
        return np.zeros(1, dtype=bool)
    table = np.zeros((p - 1, p**n) + (p,) * m, dtype=dtype)
    table[0, 0] = 1
    dims = (p,) * n
    for i, v in enumerate(V.entries):
        for t in range(p):
            block = (slice(None),) * (i + 2) + (t,)
            table[block] = _kernels.cyc_binomial_power(table[block], dims, v.coords, t, r, p)
    return ~(table != 0).any(axis=(0, 1)).reshape(p**m)


class TestProductReference:
    @pytest.mark.parametrize("object_path", [False, True])
    def test_matches_full_table(self, monkeypatch, rng, object_path):
        cases = []
        while len(cases) < (25 if object_path else 80):
            p = int(rng.choice([2, 3, 5, 7]))
            n = int(rng.integers(0, 4))
            m = int(rng.integers(0, 7))
            if (p - 1) * p ** (n + m) > 50_000:
                continue
            rows = _shared_direction_rows(rng, p, n, m, zero_scalar=True)
            if m and rng.random() < 0.2:
                rows[int(rng.integers(0, m))] = (0,) * n
            cases.append((FpMultiset.from_coords(p, rows, n=n), int(rng.integers(1, p))))
        if object_path:
            monkeypatch.setattr(config, "INT64_SAFE_BOUND", 4)
        hits = 0
        for V, r in cases:
            want = _product_verdicts_reference(V, r, object if object_path else np.int64)
            assert np.array_equal(gr.product_twist_verdicts(V, r), want)
            # the cover route is independent of Z[w] and must agree for every r
            assert np.array_equal(gr.cover_twist_verdicts(V), want)
            hits += bool(want.any())
        assert hits >= 3

    @pytest.mark.parametrize(
        "p,n,m,width",
        [(3, 2, 5, np.int8), (3, 2, 6, np.int16), (2, 0, 5, np.int8), (2, 0, 6, np.int16),
         (2, 0, 13, np.int16), (2, 0, 14, np.int32)],
    )
    def test_narrow_width_on_each_side_of_a_switch(self, monkeypatch, rng, p, n, m, width):
        # r|V| = 5 | 6 is the int8 -> int16 switch and 13 | 14 the int16 ->
        # int32 one.  At p = 2 the zero vectors reach the bound: the all-ones
        # twist multiplies by 2 per entry, so its product is 2^m, and a table
        # that wrapped would call it zero.
        if p == 2:
            V = FpMultiset.from_coords(2, [[]] * m, n=0)
        else:
            V = random_multiset(rng, p, n, m)
        widths = []
        power = K.cyc_binomial_power

        def spy(table, *args):
            widths.append(table.dtype)
            return power(table, *args)

        monkeypatch.setattr(K, "cyc_binomial_power", spy)
        got = gr.product_twist_verdicts(V)
        assert set(widths) == {np.dtype(width)}
        monkeypatch.setattr(config, "INT64_SAFE_BOUND", 4)
        want = gr.product_twist_verdicts(V)
        assert widths[-1] == object
        assert np.array_equal(got, want)
        if p == 2:
            assert np.flatnonzero(~got).tolist() == [2**m - 1]

    def test_peak_memory_below_half_the_full_table(self, rng):
        import tracemalloc

        p, n, m = 7, 2, 5
        V = random_multiset(rng, p, n, m, nonzero=True)
        full_table = (p - 1) * p**n * p**m * 8
        tracemalloc.start()
        try:
            gr.product_twist_verdicts(V)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_table / 2


class TestProductTableCap:
    def test_batched_tables_capped_as_a_whole(self, monkeypatch):
        # 3^2 twists x 3 points x 2 coefficients = 54 cells
        V = FpMultiset.from_coords(3, [[1], [1]])
        monkeypatch.setattr(config, "RING_SIZE_CAP", 54)
        assert gr.product_twist_verdicts(V).shape == (9,)
        monkeypatch.setattr(config, "RING_SIZE_CAP", 53)
        with pytest.raises(CapExceededError, match="54"):
            gr.product_twist_verdicts(V)


class TestCoverVerdictCap:
    def test_cover_table_work_capped_as_a_whole(self, monkeypatch):
        # 3^2 twists x 3 points = 27 covering-table updates
        V = FpMultiset.from_coords(3, [[1], [1]])
        monkeypatch.setattr(config, "RING_SIZE_CAP", 27)
        assert gr.cover_twist_verdicts(V).shape == (9,)
        assert gr.is_c_irredundant(V) is None
        monkeypatch.setattr(config, "RING_SIZE_CAP", 26)
        for oracle in (gr.cover_twist_verdicts, gr.is_c_irredundant):
            with pytest.raises(CapExceededError, match="27"):
                oracle(V)

    def test_large_ring_and_twist_space_refused_at_once(self, rng):
        # 2^19 twists and 2^20 points each fit their own cap; the product does not
        V = random_multiset(rng, 2, 20, 19)
        for oracle in (gr.cover_twist_verdicts, gr.is_c_irredundant):
            with pytest.raises(CapExceededError, match="524288 \\* 1048576"):
                oracle(V)
