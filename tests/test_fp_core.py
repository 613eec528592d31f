from __future__ import annotations

import pytest

from fpvanish import fp_core as fc
from fpvanish.errors import CapExceededError, InvariantViolationError

import reference as ref
from conftest import random_multiset


class TestPrimeModulus:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11, 199):
            assert fc.PrimeModulus(p).p == p

    @pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 21, -7])
    def test_rejects_composites(self, bad):
        with pytest.raises(ValueError):
            fc.PrimeModulus(bad)


def _trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


class TestIsPrime:
    def test_matches_trial_division(self, rng):
        samples = list(range(-3, 5000)) + [int(x) for x in rng.integers(5000, 10**9, size=300)]
        for n in samples:
            assert fc.is_prime(n) == _trial_division(n), n

    @pytest.mark.parametrize(
        "n",
        [
            2047,  # strong pseudoprime to base 2
            3215031751,  # to bases 2, 3, 5, 7
            3825123056546413051,  # to bases 2 through 23
            318665857834031151167461,  # to bases 2 through 37
            (2**31 - 1) * 1000000007,
            41 * 43,
            43 * 43,  # the least composite with no factor among the bases
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not fc.is_prime(n)

    @pytest.mark.parametrize("n", [1847, 1861, 2**31 - 1, 1000000007, 2**61 - 1, 2**64 - 59])
    def test_large_primes(self, n):
        assert fc.is_prime(n)


    def test_composite_past_the_exact_bound_fails_at_once(self):
        # no factor below 2^61; trial division to its square root would not end
        assert not fc.is_prime((2**61 - 1) * (2**89 - 1))

    def test_probable_prime_is_exact_below_the_bound(self, rng):
        samples = list(range(-3, 3000)) + [int(x) for x in rng.integers(3000, 10**12, size=300)]
        for n in samples:
            assert fc._probable_prime(n) == fc.is_prime(n), n
        assert fc._probable_prime(2**89 - 1)
        assert not fc._probable_prime(318665857834031151167461)

class TestFpVector:
    def test_coordinate_range_enforced(self):
        with pytest.raises(ValueError):
            fc.FpVector(5, (5, 0))

    def test_index_roundtrip(self):
        for p, n in ((2, 3), (5, 2), (3, 4)):
            for idx in range(p**n):
                assert fc.FpVector.from_index(p, n, idx).index == idx

    def test_index_is_most_significant_first(self):
        assert fc.FpVector(5, (4, 4, 4)).index == 124
        assert fc.FpVector(5, (1, 0, 0)).index == 25


class TestSpanDimension:
    def test_empty_span(self):
        assert fc.span_dimension(fc.FpMultiset(5, 2, ())) == 0

    def test_full_rank(self):
        V = fc.FpMultiset.from_coords(2, [[1, 0], [0, 1], [1, 1]])
        assert fc.span_dimension(V) == 2

    def test_dependent_rows(self):
        V = fc.FpMultiset.from_coords(5, [[1, 2], [2, 4]])
        assert fc.span_dimension(V) == 1

    def test_bounded_by_distinct_entries(self, rng):
        for _ in range(20):
            p = int(rng.choice([2, 3, 5]))
            n = int(rng.integers(1, 4))
            V = random_multiset(rng, p, n, int(rng.integers(0, 6)))
            assert fc.span_dimension(V) <= min(n, len(set(V.entries)))


class TestScaleMultiset:
    def test_identity_scaling(self):
        V = fc.FpMultiset.from_coords(5, [[1, 2], [3, 4]])
        assert fc.scale_multiset(V, [1, 1]) == V

    def test_single_entry_scaling(self):
        V = fc.FpMultiset.from_coords(5, [[1, 1]])
        assert fc.scale_multiset(V, [3]).entries[0].coords == (3, 3)

    def test_rejects_zero_scalar(self):
        V = fc.FpMultiset.from_coords(5, [[1, 1]])
        with pytest.raises(ValueError):
            fc.scale_multiset(V, [5])

    def test_preserves_span_dimension(self, rng):
        for _ in range(50):
            p = int(rng.choice([3, 5, 7]))
            n = int(rng.integers(1, 4))
            V = random_multiset(rng, p, n, int(rng.integers(1, 7)))
            scalars = [int(rng.integers(1, p)) for _ in range(V.size)]
            assert fc.span_dimension(V) == fc.span_dimension(fc.scale_multiset(V, scalars))


class TestEnumerateVectors:
    def test_two_two(self):
        got = [v.coords for v in fc.enumerate_vectors(2, 2)]
        assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_three_one(self):
        assert [v.coords for v in fc.enumerate_vectors(3, 1)] == [(0,), (1,), (2,)]

    def test_five_cubed(self):
        vs = list(fc.enumerate_vectors(5, 3))
        assert len(vs) == 125
        assert vs[0].coords == (0, 0, 0) and vs[-1].coords == (4, 4, 4)
        assert len(set(vs)) == 125

    def test_cap_violation(self):
        vectors = fc.enumerate_vectors(2, 4, cap=10)  # a generator: checks when iteration starts
        with pytest.raises(CapExceededError):
            next(vectors)


class TestRingCap:
    @pytest.mark.parametrize("p,n,size", [(2, 3, 8), (3, 2, 9), (5, 0, 1), (2, 4, 16)])
    def test_at_or_below_the_cap(self, p, n, size):
        assert fc.check_ring_cap(p, n, 16) == size

    def test_small_n_names_the_size(self):
        with pytest.raises(CapExceededError, match=r"^p\^n = 3\^3 = 27 exceeds cap 10$"):
            fc.check_ring_cap(3, 3, 10)

    @pytest.mark.parametrize("n", [5, 17, 10**8, 10**30])
    def test_large_n_is_refused_without_building_p_to_the_n(self, n):
        # cap 10 has 4 bits, so every n > 4 is past it for p >= 2
        with pytest.raises(CapExceededError, match=rf"^p\^n = 2\^{n}( = \d+)? exceeds cap 10$"):
            fc.check_ring_cap(2, n, 10)

    def test_huge_size_is_not_named(self):
        # 1,000,003^3 has 60 bits, more than p's 20 and cap 10's 4 together
        with pytest.raises(CapExceededError, match=r"^p\^n = 1000003\^3 exceeds cap 10$"):
            fc.check_ring_cap(1000003, 3, 10)


class TestSerialization:
    def test_roundtrip(self):
        V = fc.FpMultiset.from_coords(5, [[1, 0], [0, 1], [1, 1], [1, 1]])
        data = V.to_dict()
        assert data == {"p": 5, "n": 2, "vectors": [[1, 0], [0, 1], [1, 1], [1, 1]]}
        assert fc.FpMultiset.from_coords(data["p"], data["vectors"], n=data["n"]) == V


class TestSolveCombination:
    def test_simple_solve(self):
        assert fc.solve_combination(5, [(1, 0), (1, 1)], (3, 2)) == (1, 2)

    def test_unsolvable(self):
        assert fc.solve_combination(5, [(1, 0)], (0, 1)) is None
        assert fc.solve_combination(5, [], (0, 1)) is None
        assert fc.solve_combination(5, [], (0, 0)) == ()

    def test_failed_recheck_is_an_invariant_violation(self, monkeypatch):
        real = fc.rref_mod_p

        def corrupted(rows, p):
            rref, pivots = real(rows, p)
            rref[0, -1] = (rref[0, -1] + 1) % p
            return rref, pivots

        monkeypatch.setattr(fc, "rref_mod_p", corrupted)
        with pytest.raises(InvariantViolationError):
            fc.solve_combination(5, [(1, 0)], (2, 0))

    def test_respects_multiplicity(self, rng):
        for _ in range(20):
            p = int(rng.choice([3, 5]))
            n = int(rng.integers(1, 3))
            V = random_multiset(rng, p, n, int(rng.integers(1, 5)))
            coeffs = [int(rng.integers(0, p)) for _ in range(V.size)]
            rows = [v.coords for v in V.entries]
            x = ref.combination(p, coeffs, rows)
            got = fc.solve_combination(p, rows, x)
            assert got is not None
            assert ref.combination(p, got, rows) == x


class TestBitmaskCovers:
    @staticmethod
    def _random_family(rng, bits):
        full = (1 << bits) - 1
        masks = [int(x) for x in rng.integers(0, 2**bits, size=int(rng.integers(1, 8)))]
        if rng.random() < 0.7:
            masks.append(full & ~(masks[0] if masks else 0))  # complete the cover
        if rng.random() < 0.3:
            masks.append(masks[int(rng.integers(len(masks)))])  # a duplicate
        return masks, full

    def test_irredundance_matches_definition(self, rng):
        for _ in range(300):
            masks, full = self._random_family(rng, int(rng.integers(1, 10)))
            private = [m & ~_union(masks[:i] + masks[i + 1 :]) for i, m in enumerate(masks)]
            want = _union(masks) == full and all(private)
            assert fc.is_irredundant_mask_cover(masks, full) == want

    def test_shrink_matches_plain_greedy(self, rng):
        for _ in range(300):
            masks, full = self._random_family(rng, int(rng.integers(1, 10)))
            if _union(masks) != full:
                continue
            kept = list(range(len(masks)))
            for i in range(len(masks)):
                trial = [j for j in kept if j != i]
                if _union([masks[j] for j in trial]) == full:
                    kept = trial
            got = fc.shrink_mask_cover(masks, full)
            assert got == kept
            assert fc.is_irredundant_mask_cover([masks[j] for j in got], full)

    def test_hyperplane_masks_match_point_sets(self, rng):
        p, n = 3, 2
        normals = [tuple(int(c) for c in rng.integers(0, p, size=n)) for _ in range(6)]
        values = [int(v) for v in rng.integers(-p, p, size=6)]
        masks = fc.hyperplane_masks(p, n, normals, values)
        for v, u, mask in zip(normals, values, masks):
            want = sum(
                1 << x.index for x in fc.enumerate_vectors(p, n) if ref.dot(p, x.coords, v) == u % p
            )
            assert mask == want
        assert fc.hyperplane_masks(p, n, [], []) == []


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out
