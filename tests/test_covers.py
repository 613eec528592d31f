from __future__ import annotations

import hashlib
import json
from functools import partial, reduce
from itertools import product

import pytest

from fpvanish import covers as cv
from fpvanish import group_ring as gr
from fpvanish.arithmetic_sets import smallest_arithmetic_size
from fpvanish.cli import main
from fpvanish.errors import CapExceededError, PreconditionError
from fpvanish.fp_core import FpMultiset, FpVector, enumerate_vectors

import reference as ref
from conftest import cyclic_garbage, random_multiset


@pytest.fixture
def z2sq():
    return cv.AbelianGroup((2, 2))


def three_coset_cover(z2sq):
    """The classical irredundant cover of Z_2^2 by its three order-2 subgroups."""
    subs = [H for H in z2sq.subgroups() if H.order == 2]
    assert len(subs) == 3
    h1, h2, h3 = subs
    # translate the second and third so the union covers all four elements
    for y in z2sq.elements():
        for z in z2sq.elements():
            cover = cv.CosetCover(z2sq, ((h1, 0), (h2, y), (h3, z)))
            if cv.is_irredundant_cover(cover):
                return cover
    raise AssertionError("no irredundant translate combination found")


# ---------------------------------------------------------------------------
# Reference implementations: the lattice by BFS closure of H + {g} and the
# cover DFS that filters repeated covers through a set of found index sets.


def reference_index(g, coords):
    """Mixed-radix index of a coordinate tuple, coordinate 0 most significant."""
    idx = 0
    for c, d in zip(coords, g.factors):
        idx = idx * d + c
    return idx


def reference_coords(g):
    """The coordinate tuple of every element index, by counting in mixed radix."""
    return list(product(*(range(d) for d in g.factors))) if g.order > 1 else [()]


def reference_add(g, x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, g.factors))


def reference_close(g, gens):
    coords = reference_coords(g)
    steps = [coords[s] for s in gens]
    zero = coords[0]
    elems = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for s in steps:
            y = reference_add(g, x, s)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return frozenset(reference_index(g, y) for y in elems)


def reference_subgroups(g):
    seen = {frozenset({0}): None}
    queue = [frozenset({0})]
    while queue:
        H = queue.pop()
        for x in g.elements():
            if x not in H:
                K = reference_close(g, list(H) + [x])
                if K not in seen:
                    seen[K] = None
                    queue.append(K)
    return sorted(seen, key=lambda K: (len(K), sorted(K)))


def reference_generators(g, H):
    gens = []
    span = frozenset({0})
    for e in sorted(H):
        if e not in span:
            gens.append(e)
            span = reference_close(g, gens)
    return tuple(gens)


def reference_cosets(g, subgroups):
    """(subgroup key, least element, mask) for every distinct coset, sorted."""
    coords = reference_coords(g)
    out = []
    for H in subgroups:
        seen = set()
        for rep in g.elements():
            coset = {reference_index(g, reference_add(g, coords[h], coords[rep])) for h in H}
            mask = sum(1 << e for e in coset)
            if mask not in seen:
                seen.add(mask)
                out.append((tuple(sorted(H)), min(coset), mask))
    out.sort(key=lambda t: t[:2])
    return out


def reference_cover_dfs(masks, full, max_size):
    """Every first-uncovered-element path, lazily; a cover is yielded on its first arrival."""
    candidates = [[i for i, m in enumerate(masks) if (m >> e) & 1] for e in range(full.bit_length())]
    max_cover = max((m.bit_count() for m in masks), default=0)
    seen = set()
    chosen = []

    def dfs(union, privates):
        if union == full:
            if frozenset(chosen) not in seen:
                seen.add(frozenset(chosen))
                yield list(chosen)
            return
        slots = max_size - len(chosen)
        rem = ~union & full
        if slots <= 0 or rem.bit_count() > max_cover * slots:
            return
        e = (rem & -rem).bit_length() - 1
        for i in candidates[e]:
            m = masks[i]
            new_privates = [pv & ~m for pv in privates]
            if all(new_privates):
                chosen.append(i)
                yield from dfs(union | m, new_privates + [m & ~union])
                chosen.pop()

    return dfs(0, [])


def reference_phi_cover(masks, subgroups, full, max_size, search=reference_cover_dfs):
    """The first `search` cover whose subgroups meet in {0}, at the least size
    that has one; None when no size up to max_size has one."""
    if reduce(int.__and__, subgroups) != 1:
        return None  # every family meets in at least the meet of the whole pool
    for k in range(1, max_size + 1):
        for chosen in search(masks, full, k):
            if reduce(int.__and__, (subgroups[i] for i in chosen)) == 1:
                return chosen
    return None


class TestAbelianGroup:
    def test_from_orders_splits_composites(self):
        g = cv.AbelianGroup.from_orders([6, 4])
        assert g.factors == (2, 3, 4)
        assert g.order == 24

    def test_rejects_non_prime_power_factor(self):
        with pytest.raises(ValueError):
            cv.AbelianGroup((6,))

    def test_element_arithmetic(self):
        g = cv.AbelianGroup((2, 4))
        a = g.encode((1, 3))
        b = g.encode((1, 2))
        assert g.decode(g.add(a, b)) == (0, 1)
        assert g.decode(g.add(a, g.encode((1, 1)))) == (0, 0)

    @pytest.mark.parametrize("factors", [(2,), (9,), (2, 2, 2), (3, 4), (2, 4, 4), (3, 3, 3)])
    def test_translate_moves_each_point(self, factors):
        g = cv.AbelianGroup(factors)
        coords = reference_coords(g)
        for x in g.elements():
            for e in g.elements():
                want = reference_index(g, reference_add(g, coords[e], coords[x]))
                assert g.translate(1 << e, x) == 1 << want
            assert g.translate(g.full_mask, x) == g.full_mask

    def test_encode_rejects_wrong_length(self):
        g = cv.AbelianGroup((2, 2))
        for coords in ((1,), (1, 0, 0)):
            with pytest.raises(ValueError):
                g.encode(coords)
        assert cv.AbelianGroup(()).encode(()) == 0

    def test_subgroup_counts(self):
        assert len(cv.AbelianGroup((4,)).subgroups()) == 3
        assert len(cv.AbelianGroup((2, 2)).subgroups()) == 5
        assert len(cv.AbelianGroup((2, 2, 2)).subgroups()) == 16

    def test_maximal_subgroups(self, z2sq):
        assert len(z2sq.maximal_subgroups()) == 3
        assert len(cv.AbelianGroup((4,)).maximal_subgroups()) == 1

    def test_large_cyclic_group(self):
        # joins double their step, so <5> in Z_{5^9} takes 19 translates (2^19 >= 5^8), not 5^8
        g = cv.AbelianGroup((5**9,))
        H = g.subgroup([5])
        assert H.order == 5**8 and H.index() == 5
        assert H.mask == int("00001" * 5**8, 2)
        assert H.coset_mask(5**9 - 2) == (H.mask << 5**9 - 2 | H.mask >> 2) & g.full_mask
        assert g.subgroup([1]).mask == g.full_mask

    def test_subgroup_enumeration_cap(self):
        with pytest.raises(CapExceededError):
            cv.AbelianGroup((64,)).subgroups()


class TestSubgroupConstructor:
    @pytest.mark.parametrize("elements", [{0, -1}, {0, 99}, {0, 4}, {-4, 0}])
    def test_element_outside_the_group_refused(self, z2sq, elements):
        with pytest.raises(ValueError, match="not in"):
            cv.Subgroup(z2sq, frozenset(elements))

    @pytest.mark.parametrize("elements", [set(), {1}, {1, 2}, {0, 1, 2}, {0, 3, 1}])
    def test_non_subgroup_refused(self, z2sq, elements):
        with pytest.raises(ValueError, match="do not form a subgroup"):
            cv.Subgroup(z2sq, frozenset(elements))

    @pytest.mark.parametrize("factors", [(2, 2), (4,), (2, 4), (3, 3)])
    def test_every_subgroup_accepted(self, factors):
        g = cv.AbelianGroup(factors)
        for H in g.subgroups():
            assert cv.Subgroup(g, H.elements) == H


class TestCoverPredicates:
    def test_whole_group_single_coset(self, z2sq):
        whole = cv.Subgroup(z2sq, frozenset(z2sq.elements()))
        C = cv.CosetCover(z2sq, ((whole, 0),))
        assert cv.is_cover(C) and cv.is_irredundant_cover(C)

    def test_all_singletons(self, z2sq):
        triv = cv.Subgroup(z2sq, frozenset({0}))
        C = cv.CosetCover(z2sq, tuple((triv, x) for x in z2sq.elements()))
        assert cv.is_cover(C) and cv.is_irredundant_cover(C)

    def test_three_coset_cover(self, z2sq):
        C = three_coset_cover(z2sq)
        assert cv.is_cover(C)
        assert cv.is_irredundant_cover(C)
        assert cv.intersection_subgroup(C).order == 1
        assert all(H in z2sq.maximal_subgroups() for H, _ in C.cosets)
        assert cv.intersection_subgroup(C).index() == 4

    def test_non_cover_detected(self, z2sq):
        triv = cv.Subgroup(z2sq, frozenset({0}))
        C = cv.CosetCover(z2sq, ((triv, 0), (triv, 1)))
        assert not cv.is_cover(C)


class TestEngineCovers:
    def test_engine_covers_skip_the_recheck(self, monkeypatch):
        # covers the engine builds from its own cosets equal publicly built
        # ones but do not run __post_init__
        G = cv.AbelianGroup((2, 4))
        want = [cv.CosetCover(G, C.cosets) for C in cv.enumerate_irredundant_covers(G, 4)]
        phi = cv.phi_exact(G)
        calls = []
        monkeypatch.setattr(cv.CosetCover, "__post_init__", lambda self: calls.append(self))
        assert list(cv.enumerate_irredundant_covers(G, 4)) == want
        assert cv.phi_exact(G) == phi
        assert calls == [] and len(want) > 10

    def test_foreign_subgroup_pool_refused(self, z2sq):
        other = cv.AbelianGroup((2, 2))
        with pytest.raises(ValueError, match="same group"):
            next(cv.enumerate_irredundant_covers(z2sq, 3, other.subgroups()))


def random_mask_pool(rng, width: int, size: int) -> list[int]:
    """Random masks of `width` bits with a duplicate, the full mask and the empty one mixed in."""
    full = (1 << width) - 1
    masks = [int(rng.integers(0, full + 1)) for _ in range(size)]
    masks += [masks[int(rng.integers(0, size))], full, 0]
    order = rng.permutation(len(masks))
    return [masks[i] for i in order]


class TestCoverEngine:
    def test_matches_reference_on_random_pools(self, rng):
        pools = 0
        for _ in range(300):
            width = int(rng.integers(0, 9))
            masks = random_mask_pool(rng, width, int(rng.integers(1, 12)))
            full = (1 << width) - 1
            for max_size in (0, 1, 2, 3, 5):
                want = list(reference_cover_dfs(masks, full, max_size))
                assert list(cv._cover_dfs(masks, full, max_size, None)) == want, (masks, full, max_size)
                pools += bool(want)
        assert pools > 300

    def test_subgroups_mode_matches_reference_on_random_pools(self, rng):
        # with subgroups the engine yields, in reference order, the covers of
        # the least size whose subgroups meet in {0} and whose lowest index
        # holds element 0; random pools are not closed under translation, so
        # the lowest-index condition shows
        found = 0
        for _ in range(100):
            width = int(rng.integers(1, 9))
            masks = random_mask_pool(rng, width, int(rng.integers(4, 12)))
            subgroups = [int(rng.integers(0, 1 << width)) | 1 for _ in masks]
            full = (1 << width) - 1
            for max_size in (1, 2, 4):
                good = [
                    c
                    for c in reference_cover_dfs(masks, full, max_size)
                    if masks[min(c)] & 1 and reduce(int.__and__, (subgroups[i] for i in c)) == 1
                ]
                least = min(map(len, good), default=0)
                got = list(cv._cover_dfs(masks, full, max_size, subgroups))
                assert got == [c for c in good if len(c) == least], (masks, subgroups, max_size)
                found += bool(got)
        assert found > 100

    def test_root_cases(self):
        # an empty universe is covered by no picks; max_size 0 and 1 at the root
        assert list(cv._cover_dfs([0, 0], 0, 0, None)) == [[]]
        assert list(cv._cover_dfs([3, 1, 2, 3], 3, 0, None)) == []
        assert list(cv._cover_dfs([3, 1, 2, 3], 3, 1, None)) == [[0], [3]]
        assert list(cv._cover_dfs([3, 1, 2, 3], 3, 2, None)) == [[0], [1, 2], [3]]
        # subgroups: only trivial intersections pass, and the search stops at the least size
        assert list(cv._cover_dfs([3, 1, 2, 3], 3, 2, [3, 1, 1, 3])) == [[1, 2]]
        assert list(cv._cover_dfs([3, 1, 2, 3], 3, 2, [1, 1, 1, 1])) == [[0], [3]]
        assert list(cv._cover_dfs([3, 1, 2, 3], 3, 1, [3, 1, 1, 3])) == []
        # root cut: no suffix of the subgroups meets in {0}, so no root is tried
        assert list(cv._cover_dfs([3, 1, 2, 3], 3, 2, [3, 3, 3, 3])) == []
        # one translate per cover: [1, 0] has its lowest index on a mask without element 0
        assert list(cv._cover_dfs([2, 1, 3], 3, 2, None)) == [[1, 0], [2]]
        assert list(cv._cover_dfs([2, 1, 3], 3, 2, [1, 1, 3])) == []

    def test_pinned_z2_4_enumeration(self):
        digest = hashlib.sha256()
        count = 0
        for C in cv.enumerate_irredundant_covers(cv.AbelianGroup((2, 2, 2, 2)), 4):
            count += 1
            digest.update(repr([(H.key, x) for H, x in C.cosets]).encode() + b"\n")
        assert count == 121571
        assert digest.hexdigest() == "a8e4fa89960e8b61a74e312cca365818ef758e9ed638bde8b68cce598229ed7a"

    def test_leaves_no_reference_cycle(self):
        g = cv.AbelianGroup((2, 4))
        masks = [c[2] for c in cv._all_cosets(g, g.subgroups())]
        assert cyclic_garbage(lambda: list(cv._cover_dfs(masks, g.full_mask, 4, None))) == 0
        assert cyclic_garbage(lambda: next(cv._cover_dfs(masks, g.full_mask, 4, None))) == 0
        subgroups = [c[0].mask for c in cv._all_cosets(g, g.subgroups())]
        assert cyclic_garbage(lambda: next(cv._cover_dfs(masks, g.full_mask, 8, subgroups))) == 0


class TestIntersectionAndClaim:
    def test_single_coset_whole_group(self, z2sq):
        whole = cv.Subgroup(z2sq, frozenset(z2sq.elements()))
        C = cv.CosetCover(z2sq, ((whole, 0),))
        assert cv.intersection_subgroup(C).order == 4
        assert cv.intersection_subgroup(C).index() == 1
        # k = 1: the complement intersection is the whole group by convention
        assert cv.check_subcover_claim(C)

    def test_all_singletons_trivial_intersection(self, z2sq):
        triv = cv.Subgroup(z2sq, frozenset({0}))
        C = cv.CosetCover(z2sq, tuple((triv, x) for x in z2sq.elements()))
        assert cv.intersection_subgroup(C).order == 1
        assert cv.intersection_subgroup(C).index() == 4

    def test_claim_on_all_z4_covers_up_to_size_4(self):
        g = cv.AbelianGroup((4,))
        seen = 0
        for C in cv.enumerate_irredundant_covers(g, 4):
            seen += 1
            assert cv.check_subcover_claim(C)
        assert seen > 0

    def test_claim_requires_irredundant(self, z2sq):
        triv = cv.Subgroup(z2sq, frozenset({0}))
        whole = cv.Subgroup(z2sq, frozenset(z2sq.elements()))
        C = cv.CosetCover(z2sq, ((whole, 0), (triv, 1)))
        with pytest.raises(PreconditionError):
            cv.check_subcover_claim(C)


class TestPhi:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_cyclic_prime(self, p):
        k, cover = cv.phi_exact(cv.AbelianGroup((p,)))
        assert k == p
        assert cv.is_irredundant_cover(cover)
        assert cv.intersection_subgroup(cover).order == 1

    def test_klein_four(self, z2sq):
        assert cv.phi_exact(z2sq)[0] == 3

    def test_phi_at_least_largest_prime_divisor(self):
        for factors in [(2, 3), (9,), (3, 3), (2, 5)]:
            g = cv.AbelianGroup(factors)
            k, _ = cv.phi_exact(g)
            assert k >= max(g.prime_divisors())

    def test_cap(self):
        with pytest.raises(CapExceededError):
            cv.phi_exact(cv.AbelianGroup((5, 5)))

    def test_maximal_variant(self):
        assert cv.phi_pn_maximal(2, 2)[0] == 3
        assert cv.phi_pn_maximal(2, 1)[0] == 2
        assert cv.phi_pn_maximal(3, 2)[0] == 4

    def test_maximal_bound_holds(self):
        for p, n in ((2, 2), (2, 3), (3, 2)):
            k, _ = cv.phi_pn_maximal(p, n)
            s = smallest_arithmetic_size(p)
            assert s**k >= p**n

    def test_efficient_cover_existence(self):
        assert cv.find_efficient_cover(cv.AbelianGroup((4,))) is None
        assert cv.find_efficient_cover(cv.AbelianGroup((2, 4))) is None
        g = cv.AbelianGroup((3, 3))
        got = cv.find_efficient_cover(g)
        assert got is not None and cv.is_irredundant_cover(got)
        assert cv.intersection_subgroup(got).order == 1
        assert all(H in g.maximal_subgroups() for H, _ in got.cosets)


class TestHyperplaneInstances:
    def test_round_trip(self, rng):
        for _ in range(10):
            p = int(rng.choice([2, 3, 5]))
            n = int(rng.integers(1, 3))
            size = int(rng.integers(1, 4))
            V = random_multiset(rng, p, n, size, nonzero=True)
            t = tuple(int(x) for x in rng.integers(0, p, size=size))
            H = cv.HyperplaneCoverInstance(V.p, V.n, V.entries, t)
            assert H.normals == V.entries and H.offsets == t

    def test_zero_normal_rejected(self):
        V = FpMultiset.from_coords(3, [[0, 0]])
        with pytest.raises(ValueError):
            cv.HyperplaneCoverInstance(V.p, V.n, V.entries, (0,))

    def test_covering_iff_product_vanishes(self, rng):
        for _ in range(20):
            p = int(rng.choice([2, 3]))
            n = int(rng.integers(1, 3))
            size = int(rng.integers(1, 5))
            V = random_multiset(rng, p, n, size, nonzero=True)
            t = tuple(int(x) for x in rng.integers(0, p, size=size))
            H = cv.HyperplaneCoverInstance(V.p, V.n, V.entries, t)
            union = 0
            for m in H.masks():
                union |= m
            covers = union == (1 << p**n) - 1
            table = gr.binomial_product_cyc(V, t)
            assert covers == (not table.any())
            # the transform is injective: zero iff it vanishes at every point
            assert covers == (len(ref.fourier_zero_set(table, p, n)) == p**n)

    def test_codim_bound_on_minimal_covers(self):
        for p, n in ((2, 2), (3, 2)):
            s = smallest_arithmetic_size(p)
            for H in cv.enumerate_irredundant_hyperplane_covers(p, n, max_size=p + 1):
                assert cv.check_codim_bound(H, s)

    def test_codim_bound_requires_cover(self):
        V = FpMultiset.from_coords(3, [[1, 0]])
        H = cv.HyperplaneCoverInstance(V.p, V.n, V.entries, (0,))
        with pytest.raises(PreconditionError):
            cv.check_codim_bound(H, 3)

    def test_shrink_matches_coset_shrink(self, rng):
        # a hyperplane of F_p^n is a coset of the kernel of its normal
        for p, n in ((2, 2), (3, 2), (2, 3)):
            group = cv.AbelianGroup((p,) * n)
            points = list(enumerate_vectors(p, n))
            for _ in range(10):
                normals, offsets = [], []
                for _ in range(int(rng.integers(1, 7))):
                    v = FpVector(p, tuple(int(c) for c in rng.integers(0, p, size=n)))
                    if not v.is_zero():
                        normals.append(v)
                        offsets.append(int(rng.integers(0, p)))
                axis = FpVector(p, (1,) + (0,) * (n - 1))
                normals += [axis] * p
                offsets += list(range(p))

                cosets = []
                for v, t in zip(normals, offsets):
                    kernel = frozenset(x.index for x in points if ref.dot(p, x.coords, v.coords) == 0)
                    rep = next(x.index for x in points if ref.dot(p, x.coords, v.coords) == (-t) % p)
                    cosets.append((cv.Subgroup(group, kernel), rep))
                C = cv.CosetCover(group, tuple(cosets))
                H = cv.HyperplaneCoverInstance(p, n, tuple(normals), tuple(offsets))
                assert H.masks() == C.masks()
                assert H.is_irredundant_cover() == cv.is_irredundant_cover(C)


class TestSerialization:
    def test_cover_roundtrip(self, z2sq, tmp_path, capsys):
        # the CLI's cover reader takes what to_dict writes
        C = three_coset_cover(z2sq)
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(C.to_dict()))
        assert main(["covers", "check", "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["factors"], payload["size"]) == (list(z2sq.factors), C.size)
        assert payload["cover"] and payload["irredundant"]


class TestGroupCatalog:
    def test_counts_match_partition_numbers(self):
        factors = cv.abelian_groups_up_to(16)
        # orders 2..16: 1,1,2,1,1,1,3,2,1,1,2,1,1,1,5 groups
        assert len(factors) == 24
        assert factors.count((2, 2, 2, 2)) == 1
        assert (4, 4) in factors

    def test_leaves_no_reference_cycle(self):
        assert cyclic_garbage(lambda: cv.abelian_groups_up_to(16)) == 0

    def test_pinned_order(self):
        assert cv.abelian_groups_up_to(16) == [
            (2,), (3,), (4,), (2, 2), (5,), (2, 3), (7,), (8,), (2, 4), (2, 2, 2), (9,), (3, 3),
            (2, 5), (11,), (3, 4), (2, 2, 3), (13,), (2, 7), (3, 5), (16,), (2, 8), (4, 4),
            (2, 2, 4), (2, 2, 2, 2),
        ]


GROUPS_UP_TO_16 = cv.abelian_groups_up_to(16)
# every group the subgroup lattice accepts (config.GROUP_ORDER_CAP_PRUNED)
GROUPS_UP_TO_32 = cv.abelian_groups_up_to(32)


class TestAgainstReference:
    @pytest.mark.parametrize("factors", GROUPS_UP_TO_32)
    def test_subgroups_and_generators(self, factors):
        g = cv.AbelianGroup(factors)
        subs = g.subgroups()
        want = reference_subgroups(g)
        assert [H.elements for H in subs] == want
        assert [H.generators for H in subs] == [reference_generators(g, K) for K in want]

    @pytest.mark.parametrize("factors", GROUPS_UP_TO_32)
    def test_coset_masks(self, factors):
        g = cv.AbelianGroup(factors)
        coords = reference_coords(g)
        for H in g.subgroups():
            for x in g.elements():
                want = {reference_index(g, reference_add(g, coords[h], coords[x])) for h in H.elements}
                assert H.coset_mask(x) == sum(1 << e for e in want)

    @pytest.mark.parametrize("factors", GROUPS_UP_TO_16)
    def test_cover_enumeration(self, factors):
        g = cv.AbelianGroup(factors)
        max_size = 3 if factors == (2, 2, 2, 2) else 4
        cosets = reference_cosets(g, reference_subgroups(g))
        want = [
            [cosets[i][:2] for i in chosen]
            for chosen in reference_cover_dfs([c[2] for c in cosets], (1 << g.order) - 1, max_size)
        ]
        got = [[(H.key, x) for H, x in C.cosets] for C in cv.enumerate_irredundant_covers(g, max_size)]
        assert got == want
        assert len({frozenset(c) for c in got}) == len(got)

    @pytest.mark.parametrize(
        "factors,maximal",
        [(f, False) for f in GROUPS_UP_TO_16] + [(f, True) for f in GROUPS_UP_TO_32],
        ids=[f"all_{f}" for f in GROUPS_UP_TO_16] + [f"maximal_{f}" for f in GROUPS_UP_TO_32],
    )
    def test_phi_search(self, factors, maximal):
        # the one-pass phi search returns the first reference cover with
        # trivial intersection at the least size
        g = cv.AbelianGroup(factors)
        pool = g.maximal_subgroups() if maximal else g.subgroups()  # the lattice is checked above
        cosets = reference_cosets(g, [H.elements for H in pool])
        masks = [c[2] for c in cosets]
        subgroups = [sum(1 << e for e in c[0]) for c in cosets]
        search = reference_cover_dfs
        if (factors, maximal) in {((2, 2, 2, 2), False), ((2, 2, 2, 2, 2), True)}:
            # the reference walks every path, 10-20 s on these two; the uncut
            # enumeration, checked against it above, stands in
            search = partial(cv._cover_dfs, subgroups=None)
        want = reference_phi_cover(masks, subgroups, g.full_mask, g.order, search)
        got = cv._phi_search(g, pool, 32)
        if want is None:
            assert got is None
        else:
            assert got[0] == len(want)
            assert [(H.key, x) for H, x in got[1].cosets] == [cosets[i][:2] for i in want]

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
    def test_hyperplane_enumeration(self, p, n):
        points = list(enumerate_vectors(p, n))
        normals = [v for v in points if not v.is_zero() and next(c for c in v.coords if c) == 1]
        pool = [(v.coords, t) for v in normals for t in range(p)]
        masks = [sum(1 << x.index for x in points if ref.dot(p, x.coords, v) == (-t) % p) for v, t in pool]
        want = [[pool[i] for i in chosen] for chosen in reference_cover_dfs(masks, (1 << p**n) - 1, len(pool))]
        got = [
            [(v.coords, t) for v, t in zip(H.normals, H.offsets)]
            for H in cv.enumerate_irredundant_hyperplane_covers(p, n)
        ]
        assert got == want
        assert len({frozenset(c) for c in got}) == len(got)
