"""Witness search for simultaneous non-vanishing of several linear maps.

A choice system is a family of invertible matrices M_1..M_k over F_p with
allowed sets X_{i,j}; a witness is an x with (M_i x)(j) in X_{i,j} for all
i, j.  The sets are held as one boolean table, p bytes a row, whatever
their sizes.  When no witness exists, the forbidden values t not in X_{i,j}
give affine hyperplanes {x : <row_j(M_i), x> = t} that cover F_p^n, and a
certificate carries an irredundant subfamily together with the span bound
that makes failures impossible once s^(kr) < p.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional, Sequence

import numpy as np

from .covers import HyperplaneCoverInstance
from .errors import InvariantViolationError, PreconditionError
from .fp_core import (
    FpVector,
    _as_prime,
    _rank,
    check_ring_cap,
    coords_matrix,
    hyperplane_masks,
    shrink_mask_cover,
)


def is_invertible(M: np.ndarray, p: int) -> bool:
    M = np.asarray(M)
    return M.shape[0] == M.shape[1] and _rank(p, M.shape[1], M) == M.shape[0]


class ChoiceSystem:
    """Invertible matrices M_1..M_k with per-coordinate allowed sets X_{i,j},
    held as the (k, n, p) boolean table `allowed`: allowed[i, j, t] is t in X_{i,j}."""

    def __init__(self, p: int, matrices: Sequence, choice_sets: Sequence[Sequence[Sequence[int]]]):
        self._set_matrices(p, matrices)
        if len(choice_sets) != self.k:
            raise ValueError("one row of choice sets per matrix required")
        self.allowed = np.zeros((self.k, self.n, self.p), dtype=bool)
        for i, row in enumerate(choice_sets):
            if len(row) != self.n:
                raise ValueError(f"choice row {i} must have {self.n} sets")
            for j, X in enumerate(row):
                self.allowed[i, j, [int(v) % self.p for v in X]] = True

    @classmethod
    def nonzero(cls, p: int, matrices: Sequence) -> "ChoiceSystem":
        """All allowed sets equal to F_p^* (the classical non-vanishing case)."""
        S = cls.__new__(cls)
        S._set_matrices(p, matrices)
        S.allowed = np.ones((S.k, S.n, S.p), dtype=bool)
        S.allowed[:, :, 0] = False
        return S

    def _set_matrices(self, p: int, matrices: Sequence) -> None:
        self.p = _as_prime(p)
        mats = [np.asarray(M, dtype=np.int64) % self.p for M in matrices]
        if not mats:
            raise ValueError("at least one matrix required")
        self.n = mats[0].shape[0]
        self.k = len(mats)
        for i, M in enumerate(mats):
            if M.shape != (self.n, self.n):
                raise ValueError(f"matrix {i} is not {self.n}x{self.n}")
            if not is_invertible(M, self.p):
                raise ValueError(f"matrix {i} is singular mod {self.p}")
        self.matrices = tuple(mats)

    def row_vector(self, i: int, j: int) -> FpVector:
        return FpVector(self.p, tuple(int(c) for c in self.matrices[i][j]))

    def satisfies(self, x: FpVector) -> bool:
        for i, M in enumerate(self.matrices):
            img = (M @ np.array(x.coords, dtype=np.int64)) % self.p
            for j in range(self.n):
                if not self.allowed[i, j, int(img[j])]:
                    return False
        return True


def find_witness(S: ChoiceSystem, cap: Optional[int] = None) -> Optional[FpVector]:
    """Exhaustive scan in canonical vector order; lexicographically least hit."""
    p, n = S.p, S.n
    cm = coords_matrix(p, n, cap)
    ok = np.ones(cm.shape[0], dtype=bool)
    for i, M in enumerate(S.matrices):
        imgs = (cm @ M.T) % p  # (p^n, n)
        for j in range(n):
            ok &= S.allowed[i, j, imgs[:, j]]
    hits = np.nonzero(ok)[0]
    if hits.size == 0:
        return None
    x = FpVector.from_index(p, n, int(hits[0]))
    if not S.satisfies(x):
        raise InvariantViolationError("witness failed re-verification")
    return x


@dataclass(frozen=True)
class CoverCertificate:
    """Irredundant forbidden-hyperplane cover witnessing witness-search failure.

    Triples (i, j, t) index matrix rows and forbidden values; the induced
    instance uses normal row_j(M_i) and offset -t so its hyperplane
    {x : <x, v> = -offset} is exactly {x : (M_i x)(j) = t}.
    """

    triples: tuple[tuple[int, int, int], ...]
    instance: HyperplaneCoverInstance

    def __post_init__(self) -> None:
        if len(self.triples) != self.instance.size:
            raise ValueError("one triple per hyperplane required")
        if not self.instance.is_irredundant_cover():
            raise ValueError("certificate family is not an irredundant cover")

    @property
    def size(self) -> int:
        return len(self.triples)

    def to_dict(self) -> dict:
        return {
            "J": [list(t) for t in self.triples],
            "normals": [list(v.coords) for v in self.instance.normals],
            "offsets": list(self.instance.offsets),
        }


def failure_certificate(S: ChoiceSystem, cap: Optional[int] = None) -> CoverCertificate:
    """Build an irredundant forbidden-hyperplane cover; requires no witness."""
    if find_witness(S, cap) is not None:
        raise PreconditionError("a witness exists; there is no failure to certify")
    p, n = S.p, S.n
    triples = []
    for i in range(S.k):
        for j in range(n):
            triples.extend((i, j, int(t)) for t in np.flatnonzero(~S.allowed[i, j]))
    normals = [S.matrices[i][j] for i, j, _ in triples]
    masks = hyperplane_masks(p, n, normals, [t for _, _, t in triples], cap)
    full = (1 << p**n) - 1
    union = 0
    for m in masks:
        union |= m
    if union != full:
        raise InvariantViolationError("forbidden hyperplanes fail to cover despite no witness")
    kept = [triples[u] for u in shrink_mask_cover(masks, full)]
    instance = HyperplaneCoverInstance(
        p,
        n,
        tuple(S.row_vector(i, j) for i, j, _ in kept),
        tuple((-t) % p for _, _, t in kept),
        cap,
    )
    return CoverCertificate(tuple(kept), instance)


def check_pigeonhole_bound(cert: CoverCertificate, k: int, r: int) -> bool:
    """dim span(normals) >= |J| / (k r): at most k r hyperplanes per direction."""
    return cert.instance.codimension() * k * r >= cert.size


def check_contradiction_condition(cert: CoverCertificate, k: int, r: int, s: int) -> bool:
    """A failure certificate can only exist when s^(kr) >= p.

    Combining the cover codimension bound with the pigeonhole bound forces
    (log s / log p) |J| >= |J| / (kr); returns whether the instance is
    consistent with that, i.e. s^(kr) >= p.
    """
    if cert.size == 0:
        return True
    return s ** (k * r) >= cert.instance.p


# ---------------------------------------------------------------------------
# Instance generators


def all_invertible_matrices(p: int, n: int) -> Iterator[np.ndarray]:
    """Every invertible n x n matrix over F_p, in lexicographic entry order."""
    for entries in product(range(p), repeat=n * n):
        M = np.array(entries, dtype=np.int64).reshape(n, n)
        if is_invertible(M, p):
            yield M


def random_invertible(p: int, n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        M = rng.integers(0, p, size=(n, n)).astype(np.int64)
        if is_invertible(M, p):
            return M


def hunt_counterexample(
    p: int, n: int, k: int, trials: int, seed: int = 0, cap: Optional[int] = None
) -> Optional[dict]:
    """Randomized probe for nonzero-coordinate witnesses over k random matrices.

    Returns None when every sampled system had a witness, else a report with
    the failing matrices and the certificate.  No claim is made either way;
    this is an exploration aid.  `cap` bounds p^n, checked before the
    primality test and before any matrix is drawn.
    """
    check_ring_cap(p, n, cap)
    p = _as_prime(p)
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        mats = [random_invertible(p, n, rng) for _ in range(k)]
        S = ChoiceSystem.nonzero(p, mats)
        if find_witness(S, cap) is None:
            cert = failure_certificate(S, cap)
            return {
                "trial": trial,
                "matrices": [M.tolist() for M in mats],
                "certificate": cert.to_dict(),
            }
    return None
