from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpvanish import arithmetic_sets as ar
from fpvanish.errors import CapExceededError, InvariantViolationError, SearchBudgetExceededError

import reference as ref

# Minimum sizes, frozen from the independent subset-enumeration oracle
# (acceptance criterion 4 re-derives these live on every run).
MIN_SIZES = {2: 2, 3: 3, 5: 4, 7: 5, 11: 5, 13: 6}


class TestVerifier:
    def test_fpstar_with_centered_exponent(self):
        # (11 - 3) / 2 = 4
        assert ar.is_r_arithmetic(range(1, 11), 4, 11)

    def test_whole_field_always_passes(self):
        for p in (2, 3, 5, 7):
            for r in (1, p - 1):
                assert ar.is_r_arithmetic(range(p), r, p)

    def test_empty_set_fails(self):
        check = ar.is_r_arithmetic([], 1, 5)
        assert not check
        assert check.failing is not None

    def test_failing_element_reported(self):
        check = ar.is_r_arithmetic([1, 2], 1, 7)
        assert not check
        # the reported element really has no valid difference
        a = check.failing
        members = {1, 2}
        lo = -1 if a in members else 1
        assert not any(
            all((a + i * b) % 7 in members for i in range(lo, 2)) for b in range(1, 7)
        )

    def test_r_range_validated(self):
        with pytest.raises(ValueError):
            ar.is_r_arithmetic([0], 0, 5)
        with pytest.raises(ValueError):
            ar.is_r_arithmetic([0], 5, 5)


def reference_check(elements, r, p):
    """The definition, scanned in O(p^2 r): every b in 1..p-1 for every a, so
    the witness of each a is its smallest valid difference."""
    witnesses = {}
    for a, b in enumerate(ref.least_differences(elements, r, p)):
        if b is None:
            return ar.ArithmeticCheck(False, p, r, failing=a)
        witnesses[a] = b
    return ar.ArithmeticCheck(True, p, r, witnesses=witnesses)


PRIMES_TO_199 = [p for p in range(2, 200) if all(p % d for d in range(2, p))]


class TestVerifierAgainstDefinition:
    """is_r_arithmetic tries only the differences to members; the definition
    tries every b.  Same verdict, same failing element, same witnesses."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_random_sets_match_reference(self, r):
        for p in PRIMES_TO_199:
            if r > p - 1:
                continue
            rng = np.random.default_rng([p, r])
            sets = [[], list(range(p))] + [
                rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False).tolist()
                for _ in range(27)
            ]
            for elements in sets:
                assert ar.is_r_arithmetic(elements, r, p) == reference_check(elements, r, p)

    @pytest.mark.parametrize("p", [101, 151, 199])
    def test_search_results_match_reference(self, p):
        for seed in range(3):
            A = ar.find_small_arithmetic_set(p, seed=seed)
            assert ar.is_r_arithmetic(A.elements, 1, p) == reference_check(A.elements, 1, p)


class TestWitnessTables:
    def test_explicit_proof_witnesses_for_fpstar(self):
        # difference 1 for the missing zero, 2a for a member a
        for p in (5, 7, 11, 13):
            r = (p - 3) // 2
            table = {0: 1, **{a: (2 * a) % p for a in range(1, p)}}
            assert ar.verify_witness_table(range(1, p), r, p, table)

    def test_bad_witness_rejected(self):
        table = {a: 1 for a in range(5)}
        assert not ar.verify_witness_table([1, 2, 3, 4], 1, 5, table)

    def test_arithmetic_set_reverifies_on_construction(self):
        check = ar.is_r_arithmetic([1, 2, 3, 4], 1, 5)
        A = ar.ArithmeticSet(5, 1, frozenset([1, 2, 3, 4]), check.witnesses)
        assert A.size == 4
        broken = dict(check.witnesses)
        broken[0] = 0
        with pytest.raises(ValueError):
            ar.ArithmeticSet(5, 1, frozenset([1, 2, 3, 4]), broken)

    def test_in_out_witness_accessors(self):
        A = ar.ArithmeticSet.verified([1, 2, 3, 4], 1, 5)
        assert A.in_witness(2) != 0
        assert A.out_witness(0) != 0
        with pytest.raises(KeyError):
            A.in_witness(0)
        with pytest.raises(KeyError):
            A.out_witness(2)


PRIMES_2_TO_61 = [p for p in PRIMES_TO_199 if p <= 61]


class TestArrayVerifierEdges:
    """The array verifier and the table re-check against the definition in
    tests/reference.py, on the edges of the difference blocks and (p,) arrays."""

    @staticmethod
    def _agree(elements, r, p):
        check = ar.is_r_arithmetic(elements, r, p)
        assert check == reference_check(elements, r, p)
        if check:
            assert ar.verify_witness_table(elements, r, p, check.witnesses)
        return check

    def test_empty_set_fails_at_zero(self):
        for p in (2, 3, 5, 7, 11):
            for r in range(1, p):
                check = self._agree([], r, p)
                assert not check and check.failing == 0

    def test_every_set_at_p_2_and_3(self):
        for p in (2, 3):
            for k in range(p + 1):
                for elements in combinations(range(p), k):
                    for r in range(1, p):
                        self._agree(elements, r, p)

    def test_single_member(self):
        # a lone member has no other member to take a difference to
        for p in (2, 3, 5, 7, 13):
            for x in range(p):
                for r in (1, p - 1):
                    assert not self._agree([x], r, p)

    def test_r_is_p_minus_1(self):
        # a member's progression is then all of F_p: only F_p itself passes
        for p in (2, 3, 5, 7, 11, 13):
            rng = np.random.default_rng(p)
            sets = [list(range(p)), list(range(1, p))] + [
                rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False).tolist() for _ in range(5)
            ]
            for elements in sets:
                assert bool(self._agree(elements, p - 1, p)) == (len(set(elements)) == p)

    @pytest.mark.parametrize("p", PRIMES_2_TO_61)
    def test_centred_exponents_to_p_61(self, p):
        """Every r up to (p - 3)/2: F_p^*, whose witness table has every
        difference pattern, and random dense sets."""
        rng = np.random.default_rng([p, 61])
        for r in range(1, max(1, (p - 3) // 2) + 1):
            assert self._agree(range(1, p), r, p) or p < 5
            for _ in range(2):
                self._agree(rng.choice(p, size=int(rng.integers(p // 2, p)), replace=False).tolist(), r, p)

    @pytest.mark.parametrize("rows, first, cells", [(1, 1, 1), (3, 2, 8), (7, 5, 5), (16, 8, 64)])
    def test_small_blocks_match_reference(self, monkeypatch, rows, first, cells):
        """Blocks and growing chunks far smaller than the sets split rows and
        wrap each element's differences at every boundary, and no chunk
        passes _BLOCK_CELLS entries unless one column of the open rows does."""
        monkeypatch.setattr(ar, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(ar, "_FIRST_CELLS", first)
        monkeypatch.setattr(ar, "_BLOCK_CELLS", cells)
        sizes, progressions = [], ar._progressions_in
        monkeypatch.setattr(
            ar, "_progressions_in",
            lambda mask, a, b, r, p: b.ndim == 2 and sizes.append(b.size) or progressions(mask, a, b, r, p),
        )
        rng = np.random.default_rng([rows, first, cells])
        for p in (2, 3, 5, 7, 11, 13, 31, 61):
            for r in (1, 2, 3):
                if r < p:
                    self._agree(range(1, p), r, p)
                    for _ in range(4):
                        self._agree(rng.choice(p, size=int(rng.integers(0, p + 1)), replace=False).tolist(), r, p)
        assert max(sizes) <= max(cells, rows)

    def test_blocks_bound_memory_at_large_p(self, monkeypatch):
        """At p = 100003 no difference array passes _BLOCK_CELLS entries, and
        the first block with a failing element ends the check."""
        shapes, progressions = [], ar._progressions_in
        monkeypatch.setattr(
            ar, "_progressions_in",
            lambda mask, a, b, r, p: shapes.append((int(a.max()), b.size)) or progressions(mask, a, b, r, p),
        )
        p = 100003
        check = ar.is_r_arithmetic(range(1, p), 1, p)
        assert check and max(size for _, size in shapes) <= ar._BLOCK_CELLS
        # only 1 and -1 lose the difference 1, to 0 outside the set
        assert {a: b for a, b in check.witnesses.items() if b != 1} == {1: 2, p - 1: 2}
        shapes.clear()
        # 0 needs -b in the set, and -b lies above p/2 for every member b
        check = ar.is_r_arithmetic(range(p // 2), 1, p)
        assert not check and check.failing == 0
        assert max(size for _, size in shapes) <= ar._BLOCK_CELLS
        assert max(a for a, _ in shapes) < ar._BLOCK_ROWS

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 61])
    def test_corrupted_tables_rejected(self, p):
        """A missing key, a difference that is 0 mod p and a wrong difference
        are each caught at every element, for members and non-members."""
        small = (ar.min_arithmetic_set(p) if p <= 31 else ar.find_small_arithmetic_set(p, seed=1)).elements
        for members, r in ((range(1, p), max(1, (p - 3) // 2)), (small, 1)):
            table = ar.is_r_arithmetic(members, r, p).witnesses
            assert ar.verify_witness_table(members, r, p, table)
            # witnesses are read mod p
            assert ar.verify_witness_table(members, r, p, {a: b + 3 * p for a, b in table.items()})
            wrong_in = wrong_out = 0
            for a in range(p):
                missing = {x: b for x, b in table.items() if x != a}
                assert not ar.verify_witness_table(members, r, p, missing)
                for zero in (0, p, -2 * p):
                    assert not ar.verify_witness_table(members, r, p, {**table, a: zero})
                wrong = [b for b in range(1, p) if not ref.difference_ok(members, r, p, a, b)]
                for b in wrong[:2] + wrong[-1:]:
                    assert not ar.verify_witness_table(members, r, p, {**table, a: b})
                if a in set(members):
                    wrong_in += len(wrong)
                else:
                    wrong_out += len(wrong)
            assert wrong_in and (wrong_out or r == (p - 3) // 2)


class TestArithmeticSetResidues:
    """Elements are reduced mod p on construction, as the witnesses are."""

    def test_duplicate_residue_collapses(self):
        w = ar.is_r_arithmetic([0, 1, 2, 3], 1, 5).witnesses
        A = ar.ArithmeticSet(5, 1, frozenset({0, 1, 2, 3, 8}), w)
        assert A.size == 4 and A.sorted_elements() == [0, 1, 2, 3]
        assert A.to_dict()["elements"] == [0, 1, 2, 3]

    def test_unreduced_members_answer_for_their_residues(self):
        w = ar.is_r_arithmetic([0, 1, 2, 3], 1, 5).witnesses
        A = ar.ArithmeticSet(5, 1, frozenset({5, 6, 7, 8}), w)
        assert A.elements == frozenset({0, 1, 2, 3})
        assert A.in_witness(0) == w[0] and A.in_witness(5) == w[0]
        assert A.out_witness(4) == w[4]
        with pytest.raises(KeyError):
            A.out_witness(0)

    def test_verified_reduces_too(self):
        A = ar.ArithmeticSet.verified([5, 6, 7, 8, 13], 1, 5)
        assert A.sorted_elements() == [0, 1, 2, 3]


class TestMinimization:
    @pytest.mark.parametrize("p,size", sorted(MIN_SIZES.items()))
    def test_frozen_minimum_sizes(self, p, size):
        A = ar.min_arithmetic_set(p)
        assert A.size == size

    def test_lexicographic_tie_break(self):
        # both {0,1,2,3} and {1,2,3,4} are arithmetic mod 5; lex-least wins
        assert ar.min_arithmetic_set(5).sorted_elements() == [0, 1, 2, 3]

    def test_log_lower_bound_holds(self):
        for p, size in MIN_SIZES.items():
            assert size >= ar.log_lower_bound(p)

    def test_cap_violation(self):
        with pytest.raises(CapExceededError):
            ar.min_arithmetic_set(37)

    # The exhaustive scan's lexicographic-first minima, pinned for every prime
    # up to the cap: scanning only the sets that contain {0, 1} keeps them.
    @pytest.mark.parametrize(
        "p, elements",
        [
            (2, [0, 1]),
            (3, [0, 1, 2]),
            (5, [0, 1, 2, 3]),
            (7, [0, 1, 2, 3, 4]),
            (11, [0, 1, 2, 4, 7]),
            (13, [0, 1, 2, 3, 5, 8]),
            (17, [0, 1, 2, 3, 6, 11]),
            (19, [0, 1, 2, 4, 7, 12]),
            (23, [0, 1, 2, 3, 4, 8, 15]),
            (29, [0, 1, 2, 3, 6, 10, 19]),
            (31, [0, 1, 2, 3, 6, 11, 20]),
        ],
    )
    def test_pinned_minimum_sets(self, p, elements):
        assert ar.min_arithmetic_set(p).sorted_elements() == elements

    @pytest.mark.parametrize("p, r, lower, least", [(23, 1, 6, 7), (13, 2, 5, 10)])
    def test_centred_scans_below_the_minimum(self, monkeypatch, p, r, lower, least):
        """Sizes from the lower bound to s_r(p) are decided by scans over the
        supersets of {-r..r}; the {0, 1} scan runs once, at s_r(p)."""
        calls, scan = [], ar._kernels.scan_combinations
        monkeypatch.setattr(
            ar._kernels, "scan_combinations",
            lambda p, r, k, base: calls.append((k, tuple(base))) or scan(p, r, k, base),
        )
        assert ar.min_arithmetic_set(p, r).size == least
        centred = tuple(range(-r, r + 1))
        assert calls == [(k, centred) for k in range(lower, least + 1)] + [(least, (0, 1))]

    @pytest.mark.parametrize("p, calls", [(5, [(4, (0, 1))]), (7, [(4, (0, 1)), (5, (0, 1))])])
    def test_first_batch_sizes_skip_the_centred_scan(self, monkeypatch, p, calls):
        """Where the supersets of {0, 1} fit in the first batch, the {0, 1}
        scan alone decides the size."""
        seen, scan = [], ar._kernels.scan_combinations
        monkeypatch.setattr(
            ar._kernels, "scan_combinations",
            lambda p, r, k, base: seen.append((k, tuple(base))) or scan(p, r, k, base),
        )
        assert ar.min_arithmetic_set(p).size == MIN_SIZES[p]
        assert seen == calls
        seen.clear()
        with pytest.raises(SearchBudgetExceededError, match="search space exhausted"):
            ar.find_small_arithmetic_set(7, target=4)
        assert seen == [(4, (0, 1))]

    def test_missing_first_set_is_an_invariant_violation(self, monkeypatch):
        scan = ar._kernels.scan_combinations
        monkeypatch.setattr(
            ar._kernels, "scan_combinations",
            lambda p, r, k, base: None if tuple(base) == (0, 1) else scan(p, r, k, base),
        )
        with pytest.raises(InvariantViolationError):
            ar.min_arithmetic_set(11)
        with pytest.raises(InvariantViolationError):
            ar.find_small_arithmetic_set(11)

    def test_larger_r_needs_longer_progressions(self):
        # any r-arithmetic set has at least min(2r+1, p) elements
        A = ar.min_arithmetic_set(7, r=2)
        assert A.size >= 5
        assert ar.is_r_arithmetic(A.elements, 2, 7)


class TestTranslationInvariance:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([5, 7, 11]), st.integers(0, 10))
    def test_translates_stay_arithmetic(self, p, c):
        A = ar.min_arithmetic_set(p)
        shifted = frozenset((a + c) % p for a in A.elements)
        assert ar.is_r_arithmetic(shifted, 1, p)

    def test_dilations_stay_arithmetic(self):
        A = ar.min_arithmetic_set(11)
        for c in range(1, 11):
            scaled = frozenset((c * a) % 11 for a in A.elements)
            assert ar.is_r_arithmetic(scaled, 1, 11)


class TestSmallSetSearch:
    def test_p5_hits_exact_minimum(self):
        A = ar.find_small_arithmetic_set(5, seed=7)
        assert A.size <= 4

    def test_no_small_set_exists_mod_7(self):
        # 2*floor(log2 7) = 4 but the true minimum is 5; the failure is
        # definitive (the whole space of candidate sizes is enumerated).
        with pytest.raises(SearchBudgetExceededError) as info:
            ar.find_small_arithmetic_set(7, seed=7)
        assert str(info.value) == (
            "no arithmetic set of size <= 4 exists in F_7 (search space exhausted)"
        )

    @pytest.mark.parametrize("p", [11, 31, 101, 199])
    def test_target_met_and_verified(self, p):
        A = ar.find_small_arithmetic_set(p, seed=7)
        assert A.size <= 2 * ar.floor_log2(p)
        assert ar.is_r_arithmetic(A.elements, 1, p)

    def test_budget_exhaustion_is_loud(self):
        with pytest.raises(SearchBudgetExceededError):
            ar.find_small_arithmetic_set(151, seed=0, budget=3)

    def test_single_violation_draws_nothing(self):
        """The repair loop takes bad[0] for a lone violation instead of
        bad[rng.integers(1)]; that keeps the seeded results only while
        integers(1) returns 0 without advancing the generator."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            state = rng.bit_generator.state
            assert rng.integers(1) == 0
            assert rng.bit_generator.state == state

    def test_requires_p_at_least_5(self):
        with pytest.raises(ValueError):
            ar.find_small_arithmetic_set(3)

    # Frozen outputs of the seeded search: the RNG call order, the swap
    # acceptance rule and the one-call-per-evaluation budget fix them.
    @pytest.mark.parametrize(
        "p, seed, elements",
        [
            (11, 0, [0, 1, 2, 4, 7]),
            (13, 1, [0, 1, 2, 3, 5, 8]),
            (101, 0, [9, 11, 26, 31, 41, 46, 51, 54, 67, 69, 93, 98]),
            (101, 1, [1, 9, 20, 37, 44, 53, 66, 67, 73, 79, 88, 97]),
            (197, 0, [0, 18, 30, 60, 81, 96, 111, 137, 140, 154, 158, 162, 163, 184]),
            (197, 1, [21, 22, 31, 48, 86, 88, 93, 104, 141, 153, 155, 157, 186, 189]),
        ],
    )
    def test_pinned_search_results(self, p, seed, elements):
        assert ar.find_small_arithmetic_set(p, seed=seed).sorted_elements() == elements

    # seed 1 at every prime of the benchmark's --small range: a change in the
    # RNG call order would move the result at most of them
    @pytest.mark.parametrize(
        "p, elements",
        [
    (11, [0, 1, 2, 4, 7]),
    (13, [0, 1, 2, 3, 5, 8]),
    (17, [1, 2, 4, 8, 9, 13, 15, 16]),
    (19, [0, 1, 4, 9, 10, 15, 17, 18]),
    (23, [1, 4, 11, 12, 19, 20, 21, 22]),
    (29, [3, 12, 15, 19, 20, 26, 27, 28]),
    (31, [1, 10, 16, 22, 23, 24, 25, 28]),
    (37, [1, 2, 4, 6, 8, 18, 19, 29, 35, 36]),
    (41, [3, 7, 10, 11, 17, 19, 22, 35, 37, 40]),
    (43, [4, 11, 17, 20, 23, 30, 31, 32, 37, 42]),
    (47, [3, 6, 12, 18, 22, 23, 24, 25, 41, 44]),
    (53, [0, 22, 23, 24, 26, 29, 36, 44, 48, 52]),
    (59, [1, 14, 18, 22, 39, 41, 46, 53, 57, 58]),
    (61, [3, 4, 9, 16, 20, 37, 42, 43, 51, 60]),
    (67, [6, 13, 16, 32, 42, 43, 47, 48, 52, 54, 58, 61]),
    (71, [3, 8, 13, 28, 41, 46, 51, 53, 59, 65, 69, 70]),
    (73, [3, 6, 12, 25, 35, 36, 38, 48, 49, 60, 64, 67]),
    (79, [0, 3, 5, 10, 17, 20, 24, 25, 30, 31, 42, 55]),
    (83, [6, 24, 39, 54, 56, 58, 69, 73, 75, 77, 81, 82]),
    (89, [0, 5, 10, 27, 40, 42, 47, 50, 67, 70, 73, 79]),
    (97, [10, 17, 23, 25, 40, 45, 47, 51, 63, 77, 79, 80]),
    (101, [1, 9, 20, 37, 44, 53, 66, 67, 73, 79, 88, 97]),
    (103, [5, 9, 15, 20, 43, 53, 60, 63, 66, 67, 68, 83]),
    (107, [5, 13, 20, 28, 32, 46, 51, 62, 69, 78, 87, 89]),
    (109, [4, 10, 15, 31, 40, 52, 58, 64, 65, 74, 90, 96]),
    (113, [9, 16, 25, 33, 41, 48, 55, 65, 66, 77, 93, 97]),
    (127, [1, 7, 20, 48, 51, 56, 64, 66, 77, 101, 122, 125]),
    (131, [3, 7, 11, 14, 19, 56, 62, 69, 98, 100, 103, 117, 118, 124]),
    (137, [6, 7, 28, 29, 56, 65, 81, 84, 96, 97, 111, 112, 123, 129]),
    (139, [1, 2, 22, 50, 51, 78, 90, 93, 106, 114, 117, 129, 135, 138]),
    (149, [14, 19, 26, 30, 39, 59, 75, 78, 91, 99, 100, 109, 119, 142]),
    (151, [16, 31, 38, 42, 48, 85, 99, 110, 119, 128, 133, 135, 136, 137]),
    (157, [15, 18, 49, 67, 72, 85, 102, 121, 129, 133, 134, 137, 139, 148]),
    (163, [4, 8, 30, 69, 78, 87, 105, 118, 130, 141, 149, 152, 154, 155]),
    (167, [35, 42, 48, 54, 79, 88, 101, 117, 123, 128, 143, 144, 155, 158]),
    (173, [9, 16, 21, 23, 26, 29, 37, 65, 82, 109, 114, 142, 155, 172]),
    (179, [3, 13, 18, 35, 82, 94, 105, 121, 128, 137, 143, 151, 167, 170]),
    (181, [4, 9, 30, 41, 52, 68, 72, 86, 95, 103, 127, 138, 164, 168]),
    (191, [4, 13, 18, 45, 58, 77, 79, 88, 96, 103, 129, 131, 154, 179]),
    (193, [0, 3, 8, 16, 22, 28, 38, 40, 76, 98, 102, 149, 171, 182]),
    (197, [21, 22, 31, 48, 86, 88, 93, 104, 141, 153, 155, 157, 186, 189]),
    (199, [17, 22, 88, 94, 105, 119, 145, 146, 153, 155, 158, 171, 187, 188]),
        ],
    )
    def test_pinned_seed_1_results_up_to_199(self, p, elements):
        assert ar.find_small_arithmetic_set(p, seed=1).sorted_elements() == elements

    @pytest.mark.parametrize(
        "p, seed, budget, target, message",
        [
            (151, 0, 3, None, "no verified arithmetic set of size <= 14 found in F_151 "
             "within 3 verifier calls (best candidate had 4 violations)"),
            (53, 2, 200, 8, "no verified arithmetic set of size <= 8 found in F_53 "
             "within 200 verifier calls (best candidate had 1 violations)"),
        ],
    )
    def test_pinned_budget_messages(self, p, seed, budget, target, message):
        with pytest.raises(SearchBudgetExceededError) as info:
            ar.find_small_arithmetic_set(p, seed=seed, budget=budget, target=target)
        assert str(info.value) == message


PRIMES_TO_61 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]


@st.composite
def swap_runs(draw):
    """A prime, a start set of size >= 3 and a sequence of swaps and undos."""
    p = draw(st.sampled_from(PRIMES_TO_61))
    start = draw(st.sets(st.integers(0, p - 1), min_size=3, max_size=p - 1))
    picks = st.integers(0, 10**6)
    moves = draw(st.lists(st.tuples(st.booleans(), picks, picks), max_size=30))
    return p, sorted(start), moves


class TestMidpointCounts:
    """The search's incremental midpoint counts against the full verifier."""

    @staticmethod
    def _check(members, mids, p):
        assert members == sorted(set(members))
        mask = np.zeros(p, dtype=bool)
        mask[members] = True
        want = np.nonzero(~ref.element_ok(mask, 1, p))[0].tolist()
        assert [m for m in members if not mids[m]] == want
        direct = [0] * p
        for y, z in combinations(members, 2):
            direct[(y + z) * pow(2, -1, p) % p] += 1
        assert mids == direct

    @settings(max_examples=150, deadline=None)
    @given(swap_runs())
    def test_incremental_violations_match_verifier(self, run):
        p, start, moves = run
        members, mids = [], [0] * p
        for x in start:
            ar._toggle(members, mids, x, p)
        self._check(members, mids, p)
        history = []
        for undo, i, j in moves:
            if undo and history:
                a, b = history.pop()
                ar._toggle(members, mids, b, p)
                ar._toggle(members, mids, a, p)
            else:
                a = members[i % len(members)]
                b = ar._kth_non_member(members, j % (p - len(members)))
                assert b not in members
                ar._toggle(members, mids, a, p)
                ar._toggle(members, mids, b, p)
                history.append((a, b))
            self._check(members, mids, p)

    @settings(max_examples=300, deadline=None)
    @given(swap_runs(), st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_swap_score_matches_verifier(self, run, i, j, pick):
        """The score of S - a + x read off S's counts, against the dense
        verifier on the swapped set; with a limit it passes the limit exactly
        when the true count does."""
        p, start, _ = run
        members, mids = [], [0] * p
        for y in start:
            ar._toggle(members, mids, y, p)
        a = members[i % len(members)]
        x = ar._kth_non_member(members, j % (p - len(members)))
        limit = pick % (len(members) + 2)
        kept = (list(members), list(mids))
        score = ar._swap_violations(members, mids, a, x, p)
        capped = ar._swap_violations(members, mids, a, x, p, limit=limit)
        assert (members, mids) == kept
        ar._toggle(members, mids, a, p)
        ar._toggle(members, mids, x, p)
        want = len(ref.arithmetic_violations(members, 1, p))
        assert score == want
        assert (capped > limit) == (want > limit)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_kth_non_member_walks_the_complement(self, p):
        rng = np.random.default_rng(p)
        for _ in range(50):
            members = sorted(rng.choice(p, size=int(rng.integers(p)), replace=False).tolist())
            outside = [x for x in range(p) if x not in members]
            assert [ar._kth_non_member(members, k) for k in range(len(outside))] == outside


class TestSmallestSizeDispatch:
    def test_exact_below_cap(self):
        assert ar.smallest_arithmetic_size(5) == 4
        assert ar.smallest_arithmetic_size(13) == 6

    def test_upper_bound_above_cap(self):
        s = ar.smallest_arithmetic_size(101)
        assert s <= 2 * ar.floor_log2(101)
