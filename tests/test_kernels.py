"""Kernels against plain reference code: ring products, loops and the verifier."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from fpvanish import _kernels as K
from fpvanish.arithmetic_sets import is_r_arithmetic
from fpvanish.fp_core import FpVector

import reference as ref


def _random_vector(rng, p, n) -> FpVector:
    return FpVector(p, tuple(int(c) for c in rng.integers(0, p, size=n)))


def _first_passing(p: int, r: int, k: int):
    """Plain reference: the lexicographically first passing k-subset of F_p."""
    return next((list(c) for c in combinations(range(p), k) if is_r_arithmetic(c, r, p)), None)


def _np_roll_reference(table, dims, v, axis):
    """y -> table[y - v] on group axis `axis`, by np.roll over its (p,)*n view."""
    if not dims:
        return table.copy()
    shape = table.shape
    shaped = table.reshape(shape[:axis] + dims + shape[axis + 1 :])
    return np.roll(shaped, tuple(v), axis=tuple(range(axis, axis + len(dims)))).reshape(shape)


def _shifts(rng, p, n):
    """The zero shift, shifts with some coordinates 0, and random ones."""
    out = [(0,) * n]
    out += [tuple(c if i == k else 0 for i, c in enumerate(rng.integers(1, p, size=n))) for k in range(n)]
    for _ in range(4):
        v = [int(c) for c in rng.integers(0, p, size=n)]
        if n:
            v[int(rng.integers(n))] = 0
        out.append(tuple(v))
        out.append(tuple(int(c) for c in rng.integers(1, p, size=n)))
    return out


def _half_shifts(rng, p, n):
    """Shifts with one half of the coordinates (split at n // 2) zero mod p,
    then each with entries moved off [0, p) by multiples of p."""
    h = n // 2
    out = []
    for _ in range(3):
        v = [int(c) for c in rng.integers(1, p, size=n)]
        out.append(tuple(v[:h]) + (0,) * (n - h))
        out.append((0,) * h + tuple(v[h:]))
    out += [tuple(c + p * int(k) for c, k in zip(v, rng.integers(-3, 4, size=n))) for v in list(out)]
    return out


class TestRolled:
    """_rolled is the group shift every kernel uses: a fresh array, input untouched."""

    @staticmethod
    def _check(table, dims, v, axis):
        before = table.copy()
        got = K._rolled(table, dims, v, axis)
        want = _np_roll_reference(table, dims, v, axis)
        assert got.shape == table.shape and got.dtype == table.dtype
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, table)
        assert np.array_equal(table, before)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, object, bool, np.int8])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_np_roll(self, rng, n, p, dtype):
        dims = (p,) * n
        for axis, shape in ((0, (p**n,)), (0, (p**n, 3)), (1, (2, p**n, 3))):
            table = rng.integers(0, 200, size=shape).astype(dtype)
            for v in _shifts(rng, p, n):
                self._check(table, dims, v, axis)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint8, np.int64, object])
    @pytest.mark.parametrize("p,n", [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (5, 4)])
    def test_every_split_up_to_six_coordinates(self, rng, p, n, dtype):
        # n = 0..3 run above; here both halves have two or more coordinates,
        # on a contiguous table, a strided view and a batched axis 1
        dims = (p,) * n
        base = rng.integers(0, 100, size=(2, p**n, 2)).astype(dtype)
        for v in _shifts(rng, p, n) + _half_shifts(rng, p, n):
            for table, axis in ((np.ascontiguousarray(base[0, :, 0]), 0), (base[:, :, 1], 1), (base, 1)):
                self._check(table, dims, v, axis)

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 2), (3, 3), (7, 3), (2, 5)])
    def test_one_half_zero_and_unreduced_entries(self, rng, p, n):
        # v[:n//2] or v[n//2:] zero mod p moves one half only; entries that
        # are negative or >= p act mod p
        dims = (p,) * n
        table = rng.integers(0, 100, size=(p**n, 2))
        for v in _half_shifts(rng, p, n):
            self._check(table, dims, v, 0)
            self._check(table, dims, [int(c) for c in v], 0)

    def test_shift_length_must_match_the_group(self):
        table = np.arange(9)
        for v in [(1,), (1, 2, 0), (), (0, 0, 0)]:
            with pytest.raises(ValueError):
                K._rolled(table, (3, 3), v)
        with pytest.raises(ValueError):
            K._rolled(np.arange(1), (), (0,))

    @pytest.mark.parametrize("p,n", [(3, 3), (3, 2), (5, 2), (7, 1)])
    def test_non_contiguous_transposed_input(self, rng, p, n):
        # a (p^n, p-1) table's .T view: coefficient-major but not C-contiguous
        table = rng.integers(-5, 6, size=(p**n, p - 1)).T
        assert not table.flags.c_contiguous
        for v in _shifts(rng, p, n):
            self._check(table, (p,) * n, v, 1)

    @pytest.mark.parametrize("p,n,k", [(2, 3, 1), (3, 2, 2), (5, 2, 1), (7, 1, 2)])
    def test_one_shift_on_every_layout(self, rng, p, n, k):
        # one v on a (p^n,) table, a (p-1, p^n) table at axis 1 and a batched
        # (p-1, p^n, p^k) table: the gather indexes are shared by every shape
        dims = (p,) * n
        v = tuple(int(c) for c in rng.integers(1, p, size=n))
        for axis, shape in ((0, (p**n,)), (1, (p - 1, p**n)), (1, (p - 1, p**n, p**k))):
            for _ in range(2):  # the second call reads the cached indexes
                self._check(rng.integers(0, 50, size=shape), dims, v, axis)

    def test_views_and_evicted_plans(self, rng):
        # many distinct shifts, each on a contiguous table and on a strided
        # view of the same shape, then the first again
        p, n = 5, 3
        dims = (p,) * n
        shifts = [tuple(int(c) for c in rng.integers(0, p, size=n)) for _ in range(100)]
        assert len(set(shifts)) > 64
        base = rng.integers(0, 50, size=(2 * (p - 1), p**n, 2))
        for v in shifts + shifts[:10]:
            self._check(np.ascontiguousarray(base[::2]), dims, v, 1)
            view = base[::2]
            assert not view.flags.c_contiguous
            self._check(view, dims, v, 1)

    def test_more_shifts_than_the_caches_hold(self, rng):
        # 528 distinct two-coordinate halves over F_23^2, more than the 512
        # indexes kept, then the first shifts again once they are evicted;
        # meanwhile one-coordinate shifts cycle through more primes than
        # the two kept
        p, n = 23, 4
        pairs = [(a, b) for a in range(p) for b in range(p) if a or b]
        order = rng.permutation(len(pairs))
        shifts = [pairs[order[2 * k]] + pairs[order[2 * k + 1]] for k in range(264)]
        table = rng.integers(0, 50, size=p**n).astype(np.uint8)
        small = {q: rng.integers(0, 50, size=(q * q, 2)) for q in (5, 7, 11)}
        for k, v in enumerate(shifts + shifts[:10]):
            self._check(table, (p,) * n, v, 0)
            q = (5, 7, 11)[k % 3]
            self._check(small[q], (q, q), (k % q, (3 * k + 1) % q), 0)

    def test_large_half_index_is_built_per_shift(self, rng):
        # a half of 67^2 = 4489 elements is past the cached size
        p, n = 67, 3
        table = rng.integers(0, 50, size=(p**n,)).astype(np.int16)
        for v in [(0, 1, 2), (5, 0, 66), (-1, 70, 0), (0, 0, 0), (3, 3, 3)]:
            self._check(table, (p,) * n, v, 0)

    def test_memory_held_across_shifts_is_bounded(self, rng):
        # 200 distinct shifts of a one-coordinate table at a prime near 10^6,
        # then at a second one: an index of p entries kept per shift would
        # hold 200 * 8 MB, while one index per prime stays far under 64 MB
        import tracemalloc

        tables = {q: rng.integers(0, q, size=q).astype(np.int32) for q in (1_000_003, 1_000_033)}
        tracemalloc.start()
        try:
            for q, table in tables.items():
                for c in range(1, 201):
                    out = K._rolled(table, (q,), (c * 4_999,))
                    assert out[c * 4_999] == table[0]
                del out
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak


class TestFpBinomialPower:
    @pytest.mark.parametrize("p,n,r", [(2, 2, 1), (3, 2, 2), (5, 1, 1), (5, 2, 3)])
    def test_matches_ring_product(self, rng, p, n, r):
        a = rng.integers(0, p, size=p**n)
        v = _random_vector(rng, p, n)
        want = a
        for _ in range(r):
            want = ref.fp_mul(want, ref.fp_binomial(p, n, v.coords), p, n)
        got = K.fp_binomial_power(a, (p,) * n, v.coords, r, p)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1)])
    def test_residue_edges_up_to_r_p_minus_1(self, rng, p, n):
        # residues 0 and p - 1 make cur - shifted reach -(p - 1) and p - 1,
        # the ends of the range the sign fold maps back into [0, p)
        a = rng.choice(np.array([0, p - 1], dtype=np.int64), size=p**n)
        a[0], a[-1] = 0, p - 1
        v = _random_vector(rng, p, n)
        if not any(v.coords):
            v = FpVector(p, (1,) + v.coords[1:])
        want = a
        for r in range(1, p):
            want = ref.fp_mul(want, ref.fp_binomial(p, n, v.coords), p, n)
            got = K.fp_binomial_power(a, (p,) * n, v.coords, r, p)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), r


    @pytest.mark.parametrize("p", [2, 127, 131, 32749, 32771])
    def test_narrow_tables_match_int64(self, rng, p):
        # every signed width that holds p, on residues that include 0 and
        # p - 1, the ends that make cur - shifted reach -(p - 1) and p - 1
        n = 2 if p == 2 else 1
        a = rng.integers(0, p, size=p**n)
        a[:2] = 0, p - 1
        widths = [w for w in (np.int8, np.int16, np.int32) if p <= np.iinfo(w).max]
        assert widths
        for v in [(1,) * n, tuple(int(c) for c in rng.integers(1, p, size=n))]:
            for r in range(1, min(p, 4)):
                want = K.fp_binomial_power(a, (p,) * n, v, r, p)
                for w in widths:
                    got = K.fp_binomial_power(a.astype(w), (p,) * n, v, r, p)
                    assert got.dtype == w
                    assert np.array_equal(got, want), (w, v, r)


def _power(a, p: int, n: int, v: FpVector, t: int, r: int) -> list:
    """a * (1 - w^t g^v)^r by the reference convolution, as nested lists."""
    for _ in range(r):
        a = ref.cyc_mul(a, ref.cyc_binomial(p, n, v.coords, t), p, n)
    return a.tolist()


class TestCycBinomialPower:
    """Z[w] tables reach the kernels coefficient-major: (p-1, p^n, *batch)."""

    @pytest.mark.parametrize("p,n,t,r", [(2, 1, 1, 1), (3, 2, 2, 1), (5, 2, 3, 2), (3, 1, 0, 2)])
    def test_matches_ring_product(self, rng, p, n, t, r):
        a = rng.integers(-4, 5, size=(p - 1, p**n))
        v = _random_vector(rng, p, n)
        got = K.cyc_binomial_power(a, (p,) * n, v.coords, t, r, p)
        assert got.tolist() == _power(a, p, n, v, t, r)

    def test_lambda_shift_matches_scalar_cyclotomic(self, rng):
        for p in (3, 5, 7):
            for _ in range(10):
                coeffs = [int(c) for c in rng.integers(-5, 6, size=p - 1)]
                t = int(rng.integers(0, p))
                got = K.lambda_shift_rows(np.array(coeffs, dtype=np.int64), t, p)
                assert tuple(got.tolist()) == ref.w_shift(coeffs, t, p)

    # Every t in 0..p-1: t = 1 and t = p - 1 are the edges of the plane slices.
    @pytest.mark.parametrize("dtype", [np.int64, object])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_lambda_shift_every_t_with_batch_axes(self, rng, p, dtype):
        rows = rng.integers(-5, 6, size=(p - 1, 4, 3)).astype(dtype)
        before = rows.copy()
        for t in range(p):
            got = K.lambda_shift_rows(rows, t, p)
            assert got.shape == rows.shape and got.dtype == rows.dtype
            for idx in np.ndindex(rows.shape[1:]):
                element = rows[(slice(None),) + idx]
                assert tuple(got[(slice(None),) + idx].tolist()) == ref.w_shift(element, t, p)
        assert np.array_equal(rows, before)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 1), (7, 1)])
    def test_power_every_t_with_batch_axes(self, rng, p, n, dtype):
        size, batch = p**n, (2, 3)
        table = rng.integers(-3, 4, size=(p - 1, size) + batch).astype(dtype)
        before = table.copy()
        v = _random_vector(rng, p, n)
        r = min(2, p - 1)
        for t in range(p):
            got = K.cyc_binomial_power(table, (p,) * n, v.coords, t, r, p)
            assert got.shape == table.shape and got.dtype == table.dtype
            for idx in np.ndindex(batch):
                block = (slice(None), slice(None)) + idx
                assert got[block].tolist() == _power(table[block], p, n, v, t, r)
        assert np.array_equal(table, before)


class TestReachExpand:
    @pytest.mark.parametrize("p,n,r", [(2, 3, 1), (3, 2, 1), (5, 2, 2), (7, 1, 3)])
    def test_matches_plain_loop(self, rng, p, n, r):
        size = p**n
        reach = (rng.random(size) < 0.3).astype(np.uint8)
        reach[0] = 1
        step = _random_vector(rng, p, n)
        want = np.zeros(size, dtype=np.uint8)
        for y in range(size):
            yv = FpVector.from_index(p, n, y)
            want[y] = any(
                reach[FpVector(p, ref.combination(p, [1, -e], [yv.coords, step.coords])).index]
                for e in range(-r, r + 1)
            )
        got = K.reach_expand(reach, (p,) * n, step.coords, r, p)
        assert np.array_equal(got, want)

    def test_semantics_small(self):
        # F_5, step 2, r = 1: from {0} reach {0, 2, -2}.
        reach = np.zeros(5, dtype=np.uint8)
        reach[0] = 1
        out = K.reach_expand(reach, (5,), (2,), 1, 5)
        assert sorted(np.nonzero(out)[0]) == [0, 2, 3]


class TestArithmeticVerifier:
    @pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (7, 2), (11, 3)])
    def test_matches_is_r_arithmetic(self, rng, p, r):
        masks = (rng.random((64, p)) < 0.5).astype(np.uint8)
        masks[0] = 1  # the whole field always passes
        batch = K.masks_arithmetic_ok(masks, r, p)
        per_element = ref.element_ok(masks.astype(bool), r, p)
        for s, mask in enumerate(masks.astype(bool)):
            check = is_r_arithmetic(np.nonzero(mask)[0].tolist(), r, p)
            single = ref.element_ok(mask, r, p)
            violating = set(np.nonzero(~single)[0].tolist())
            assert bool(batch[s]) == check.ok
            assert np.array_equal(per_element[:, s], single)
            if check.ok:
                assert violating == set()
            else:
                assert check.failing in violating

    @pytest.mark.parametrize(
        "p,r", [(p, r) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 37, 67) for r in (1, 2, 3) if r < p]
    )
    def test_matches_dense_reference_on_mixed_batches(self, p, r):
        """Rows of every popcount in one batch, with the empty and the full
        mask; p = 37 and 67 take one and two 64-bit words."""
        rng = np.random.default_rng(100 * p + r)
        density = rng.random((300, 1))
        masks = (rng.random((300, p)) < density).astype(np.uint8)
        masks[0] = 0
        masks[1] = 1
        masks[2:, rng.integers(p)] = 1  # more sets with a chance to pass
        order = rng.permutation(len(masks))
        masks = masks[order]
        got = K.masks_arithmetic_ok(masks, r, p)
        want = ref.element_ok(masks.astype(bool), r, p).all(axis=0)
        assert got.dtype == np.uint8 and got.shape == (len(masks),)
        assert got.tolist() == want.astype(np.uint8).tolist()
        assert got[order == 0].tolist() == [0] and got[order == 1].tolist() == [1]

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_scan_finds_first_lexicographic_set(self, p):
        got = K.scan_combinations(p, 1, 4, (0, 1))
        assert (None if got is None else list(got)) == _first_passing(p, 1, 4)


PRIMES_TO_19 = [2, 3, 5, 7, 11, 13, 17, 19]
SCAN_CASES = [(p, 1) for p in PRIMES_TO_19] + [(p, r) for r in (2, 3) for p in PRIMES_TO_19 if p <= 13 and r < p]


class TestNormalisedScan:
    """scan_combinations tries only the supersets of its base.  Over {0, 1}
    its answers must equal a scan over every k-subset, hits and None alike;
    over {-r..r} its verdicts must."""

    @pytest.mark.parametrize("p, r", SCAN_CASES)
    def test_matches_full_enumeration(self, p, r):
        for k in range(p + 1):
            got = K.scan_combinations(p, r, k, (0, 1))
            assert (None if got is None else [int(x) for x in got]) == _first_passing(p, r, k), k

    @pytest.mark.parametrize("p, r", SCAN_CASES)
    def test_centred_scan_decides_existence(self, p, r):
        """Over the supersets of {-r..r}, a hit exists exactly when some
        k-subset passes, and it holds {-r..r}."""
        centred = {i % p for i in range(-r, r + 1)}
        for k in range(p + 1):
            got = K.scan_combinations(p, r, k, range(-r, r + 1))
            assert (got is not None) == (_first_passing(p, r, k) is not None), k
            if got is not None:
                members = [int(x) for x in got]
                assert len(members) == k and centred <= set(members)
                assert is_r_arithmetic(members, r, p)

    def test_size_above_p(self):
        assert K.scan_combinations(5, 1, 6, (0, 1)) is None
        assert K.scan_combinations(5, 1, 6, range(-1, 2)) is None

    def test_size_below_the_base(self):
        assert K.scan_combinations(13, 2, 4, range(-2, 3)) is None

    def test_batches_grow_to_the_cap(self, monkeypatch):
        # no 6-subset of F_23 passes, so all C(21, 4) = 5985 rows are scanned
        rows, verify = [], K.masks_arithmetic_ok
        monkeypatch.setattr(K, "masks_arithmetic_ok", lambda *a: rows.append(len(a[0])) or verify(*a))
        assert K.scan_combinations(23, 1, 6, (0, 1)) is None
        assert rows == [32, 64, 128, 256, 512, 1024, K._SCAN_BATCH, 5985 - 4064]

    @pytest.mark.parametrize("p,r,k", [(23, 1, 6), (19, 2, 6)])
    def test_progression_words_built_once_per_scan(self, monkeypatch, p, r, k):
        # no set passes, so every batch runs; the member words are built once
        words, batches = [], []
        build, verify = K._progression_words, K.masks_arithmetic_ok
        monkeypatch.setattr(K, "_progression_words", lambda *a: words.append(a) or build(*a))
        monkeypatch.setattr(K, "masks_arithmetic_ok", lambda *a: batches.append(a) or verify(*a))
        assert K.scan_combinations(p, r, k, (0, 1)) is None
        assert len(batches) >= 2 and len(words) == 1
