"""Acceptance suite: one callable per criterion, shared by pytest and the CLI.

Every criterion is deterministic given the seed.  Results carry a pass flag
and a human-readable detail line; run_all prints one line per criterion and
returns the results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import wraps
from itertools import combinations, combinations_with_replacement, product
from typing import Callable, Optional, Sequence

import numpy as np

from . import arithmetic_sets as ar
from . import covers as cv
from . import decomposition as dc
from . import group_ring as gr
from . import linear_maps as lm
from .errors import InvariantViolationError, SearchBudgetExceededError
from .fp_core import (
    FpMultiset,
    FpVector,
    _combination,
    _rank,
    coords_array,
    enumerate_vectors,
    rref_mod_p,
)

DEFAULT_SEED = 20260810

PRIMES_TO_199 = [
    5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
    79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
    157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark}  {self.number:2d}. {self.name}: {self.detail} [{self.seconds:.1f}s]"


def _timed(body: Callable[[int], tuple[int, str, bool, str]]) -> Callable[[int], CriterionResult]:
    """A criterion from its body, which returns (number, name, passed, detail): the run is timed here."""

    @wraps(body)
    def criterion(seed: int = DEFAULT_SEED) -> CriterionResult:
        t0 = time.perf_counter()
        return CriterionResult(*body(seed), time.perf_counter() - t0)

    return criterion


def _random_multiset(
    rng: np.random.Generator, p: int, n: int, size: int, nonzero: bool = False
) -> FpMultiset:
    rows = []
    while len(rows) < size:
        v = tuple(int(c) for c in rng.integers(0, p, size=n))
        if nonzero and all(c == 0 for c in v):
            continue
        rows.append(v)
    return FpMultiset.from_coords(p, rows, n=n)


@_timed
def criterion_1_olson(seed: int = DEFAULT_SEED) -> tuple[int, str, bool, str]:
    """Threshold-size random multisets all vanish with r = 1."""
    rng = np.random.default_rng(seed)
    checked = failed = 0
    for p in (2, 3, 5):
        for n in (1, 2):
            size = (p - 1) * n + 1
            for _ in range(200):
                V = _random_multiset(rng, p, n, size)
                checked += 1
                if not gr.is_fp_vanishing(V, 1):
                    failed += 1
    detail = f"{checked - failed}/{checked} vanishing"
    return 1, "olson vanishing at threshold size", failed == 0, detail


@_timed
def criterion_2_power_threshold(seed: int = DEFAULT_SEED) -> tuple[int, str, bool, str]:
    """Same protocol with exponent r and size ceil(((p-1)n+1)/r)."""
    rng = np.random.default_rng(seed + 1)
    checked = failed = 0
    for p in (2, 3, 5):
        r_values = sorted({r for r in (2, (p - 1) // 2) if 1 <= r <= p - 1})
        for r in r_values:
            for n in (1, 2):
                size = -(-((p - 1) * n + 1) // r)
                for _ in range(200):
                    V = _random_multiset(rng, p, n, size)
                    checked += 1
                    if not gr.is_fp_vanishing(V, r):
                        failed += 1
    return 2, "power-threshold vanishing", failed == 0, f"{checked - failed}/{checked} vanishing"


@_timed
def criterion_3_fpstar(seed: int = DEFAULT_SEED) -> tuple[int, str, bool, str]:
    """F_p^* passes the verifier with the centered exponent (p-3)/2."""
    bad = []
    for p in (5, 7, 11, 13, 17, 19):
        if not ar.is_r_arithmetic(range(1, p), (p - 3) // 2, p):
            bad.append(p)
    detail = "exact for p in {5,7,11,13,17,19}" if not bad else f"failed at {bad}"
    return 3, "F_p^* is (p-3)/2-arithmetic", not bad, detail


def _oracle_min_arithmetic_size(p: int, r: int = 1) -> int:
    """Independent second implementation: plain subset enumeration, no numpy.

    It deliberately scans every k-subset and shares neither reduction of
    `min_arithmetic_set`: not the {-r..r} scan that proves the smaller sizes
    empty, nor the {0, 1} scan that finds the first set of the least size.
    So it re-certifies both affine lemmas along with the minimum.
    """

    def ok(subset: tuple[int, ...]) -> bool:
        members = set(subset)
        if not members:
            return False
        for a in range(p):
            lo = -r if a in members else 1
            if not any(
                all((a + i * b) % p in members for i in range(lo, r + 1))
                for b in range(1, p)
            ):
                return False
        return True

    for k in range(1, p + 1):
        for subset in combinations(range(p), k):
            if ok(subset):
                return k
    raise InvariantViolationError("unreachable: the whole field is always r-arithmetic")


@_timed
def criterion_4_min_arithmetic(seed: int = DEFAULT_SEED) -> tuple[int, str, bool, str]:
    """Exact minima match an independent oracle and the known anchors."""
    problems = []
    sizes = {}
    for p in (2, 3, 5, 7, 11, 13):
        got = ar.min_arithmetic_set(p).size
        want = _oracle_min_arithmetic_size(p)
        sizes[p] = got
        if got != want:
            problems.append(f"s({p})={got} oracle={want}")
        if got < ar.log_lower_bound(p):
            problems.append(f"s({p})={got} below log bound {ar.log_lower_bound(p)}")
    if sizes.get(3) != 3:
        problems.append(f"s(3)={sizes.get(3)} expected 3")
    if sizes.get(5) != 4:
        problems.append(f"s(5)={sizes.get(5)} expected 4")
    detail = ", ".join(f"s({p})={s}" for p, s in sorted(sizes.items()))
    if problems:
        detail = "; ".join(problems)
    return 4, "minimal arithmetic sets vs oracle", not problems, detail


@_timed
def criterion_5_small_sets(seed: int = DEFAULT_SEED) -> tuple[int, str, bool, str]:
    """Verified sets of size <= 2*floor(log2 p) for every prime 5 <= p <= 199.

    Known mathematical exception: F_7 has no arithmetic set smaller than 5,
    while 2*floor(log2 7) = 4, so this criterion cannot pass at p = 7; the
    search reports that nonexistence definitively rather than silently.
    """
    failures = []
    for p in PRIMES_TO_199:
        target = 2 * ar.floor_log2(p)
        try:
            A = ar.find_small_arithmetic_set(p, seed=seed)
            if A.size > target:
                failures.append(f"p={p}: size {A.size} > {target}")
        except SearchBudgetExceededError as exc:
            failures.append(f"p={p}: {exc}")
    detail = (
        f"all {len(PRIMES_TO_199)} primes within bound"
        if not failures
        else "; ".join(failures)
    )
    return 5, "small arithmetic sets up to p=199", not failures, detail


def _seeded_irredundant(
    rng: np.random.Generator, p: int, n: int, r: int = 1
) -> FpMultiset:
    size = -(-((p - 1) * n + 1) // r)
    V = _random_multiset(rng, p, n, size, nonzero=True)
    return gr.extract_irredundant_fp(V, r)


def _span_elements(V: FpMultiset) -> list[FpVector]:
    """Every combination of the rref rows of V, in lexicographic coefficient order."""
    basis = rref_mod_p(coords_array(V), V.p)[0].tolist()
    coeffs = product(range(V.p), repeat=len(basis))
    return [FpVector(V.p, _combination(V.p, V.n, basis, c)) for c in coeffs]


def _with_raised(detail: str, raised: set[str]) -> str:
    """Append the sorted names of the exception types a criterion caught."""
    return f"{detail}; raised {', '.join(sorted(raised))}" if raised else detail


@_timed
def criterion_6_descent(seed: int = DEFAULT_SEED) -> tuple[int, str, bool, str]:
    """Descent representation succeeds on every span element of 100 instances."""
    rng = np.random.default_rng(seed + 6)
    checked = failed = 0
    instances = 0
    raised: set[str] = set()
    for p in (5, 7):
        A = ar.min_arithmetic_set(p)
        for n in (1, 2):
            for _ in range(25):
                V = _seeded_irredundant(rng, p, n)
                instances += 1
                for x in _span_elements(V):
                    checked += 1
                    try:
                        rep = dc.represent_in_set(x, V, A, 1)
                    except Exception as exc:
                        raised.add(type(exc).__name__)
                        failed += 1
                        continue
                    if any(c not in A.elements for c in rep.coefficients):
                        failed += 1
                        continue
                    if not dc.brute_force_representable(x, V, A):
                        failed += 1
    detail = _with_raised(f"{instances} instances, {checked - failed}/{checked} targets", raised)
    return 6, "coefficient descent vs brute force", failed == 0, detail


@_timed
def criterion_7_additive_basis(seed: int = DEFAULT_SEED) -> tuple[int, str, bool, str]:
    """Basis-union decomposition with constrained coefficients, both regimes."""
    rng = np.random.default_rng(seed + 7)

    def random_basis(p: int, n: int) -> list[list[int]]:
        while True:
            M = rng.integers(0, p, size=(n, n)).tolist()
            if _rank(p, n, M) == n:
                return M

    checked = failed = 0
    raised: set[str] = set()
    # Regime (i): p = 5, coefficients from a 4-element arithmetic set.
    A5 = ar.min_arithmetic_set(5)
    for n in (1, 2, 3):
        bases = [random_basis(5, n) for _ in range(5)]
        plan = dc.DecompositionPlan(5, n, bases, A5, 1)
        if n <= 2:
            targets = list(enumerate_vectors(5, n))
        else:
            targets = [
                FpVector(5, tuple(int(c) for c in rng.integers(0, 5, size=n)))
                for _ in range(100)
            ]
        for w in targets:
            checked += 1
            try:
                rep = plan.decompose(w)
            except Exception as exc:
                raised.add(type(exc).__name__)
                failed += 1
                continue
            if any(c not in A5.elements for c in rep.coefficients):
                failed += 1
    # Regime (ii): p = 11, 3 bases, everywhere-nonzero coefficients.
    A11 = ar.ArithmeticSet.verified(range(1, 11), 4, 11)
    for n in (1, 2):
        bases = [random_basis(11, n) for _ in range(3)]
        plan = dc.DecompositionPlan(11, n, bases, A11, 4)
        for w in enumerate_vectors(11, n):
            checked += 1
            try:
                rep = plan.decompose(w)
            except Exception as exc:
                raised.add(type(exc).__name__)
                failed += 1
                continue
            if 0 in rep.coefficients:
                failed += 1
    detail = _with_raised(f"{checked - failed}/{checked} targets decomposed", raised)
    return 7, "additive-basis decomposition", failed == 0, detail


@_timed
def criterion_8_codim_bound(seed: int = DEFAULT_SEED) -> tuple[int, str, bool, str]:
    """Codimension bound over every irredundant affine hyperplane cover."""
    checked = failed = 0
    for p, n in ((2, 2), (2, 3), (3, 2)):
        s = ar.smallest_arithmetic_size(p)
        for inst in cv.enumerate_irredundant_hyperplane_covers(p, n):
            checked += 1
            if not cv.check_codim_bound(inst, s):
                failed += 1
    detail = f"{checked - failed}/{checked} covers within bound"
    return 8, "hyperplane-cover codimension bound", failed == 0, detail


@_timed
def criterion_9_cyc_cover_equivalence(seed: int = DEFAULT_SEED) -> tuple[int, str, bool, str]:
    """Exact cyclotomic products agree with the cover oracle on every twist."""
    rng = np.random.default_rng(seed + 9)
    instances = disagreements = 0

    def check(V: FpMultiset, r: int = 1) -> None:
        nonlocal instances, disagreements
        instances += 1
        a = gr.product_twist_verdicts(V, r)
        b = gr.cover_twist_verdicts(V)
        if not np.array_equal(a, b):
            disagreements += 1

    for p in (2, 3):
        for n in (1, 2):
            vectors = [tuple(v.coords) for v in enumerate_vectors(p, n)]
            for size in range(1, 5):
                for rows in combinations_with_replacement(vectors, size):
                    check(FpMultiset.from_coords(p, rows, n=n))
    # r > 1 never changes complex vanishing; spot-check that explicitly.
    for rows in combinations_with_replacement([(0,), (1,), (2,)], 3):
        check(FpMultiset.from_coords(3, rows, n=1), r=2)
    for n in (1, 2):
        for _ in range(75):
            size = int(rng.integers(1, 5))
            check(_random_multiset(rng, 5, n, size))
    detail = f"{instances} instances, {disagreements} disagreements"
    return 9, "cyclotomic product vs cover oracle", disagreements == 0, detail


@_timed
def criterion_10_covers_suite(seed: int = DEFAULT_SEED) -> tuple[int, str, bool, str]:
    """Exact minimal covers, the drop-one-subgroup claim, and efficiency facts."""
    problems = []
    for p in (2, 3, 5):
        k, _ = cv.phi_exact(cv.AbelianGroup((p,)))
        if k != p:
            problems.append(f"phi(Z_{p})={k} expected {p}")
    k, _ = cv.phi_exact(cv.AbelianGroup((2, 2)))
    if k != 3:
        problems.append(f"phi(Z_2^2)={k} expected 3")

    claim_checked = 0
    for factors in cv.abelian_groups_up_to(16):
        g = cv.AbelianGroup(factors)
        for cover in cv.enumerate_irredundant_covers(g, 4):
            claim_checked += 1
            if not cv.check_subcover_claim(cover):
                problems.append(f"drop-one claim failed on {cover.to_dict()}")
                break
    phi_computed = 0
    for factors in cv.abelian_groups_up_to(16):
        g = cv.AbelianGroup(factors)
        k, _ = cv.phi_exact(g)
        phi_computed += 1
        if k < max(g.prime_divisors()):
            problems.append(f"phi({factors})={k} below largest prime divisor")
        elementary = len(set(g.factors)) == 1 and cv.is_prime(g.factors[0])
        eff = cv.find_efficient_cover(g)
        if elementary and eff is None:
            problems.append(f"no efficient cover found for elementary {factors}")
        if not elementary and eff is not None:
            problems.append(f"efficient cover found for non-elementary {factors}")
    detail = (
        f"phi on {phi_computed} groups, drop-one claim on {claim_checked} covers"
        if not problems
        else "; ".join(problems)
    )
    return 10, "coset-cover suite (order <= 16)", not problems, detail


@_timed
def criterion_11_choosability(seed: int = DEFAULT_SEED) -> tuple[int, str, bool, str]:
    """Witness/certificate consistency over every invertible 2x2, p in {2,3}."""
    problems = []
    checked = 0
    k = r = 1
    for p in (2, 3):
        s = ar.smallest_arithmetic_size(p)
        hypothesis = s ** (k * r) < p
        for M in lm.all_invertible_matrices(p, 2):
            checked += 1
            S = lm.ChoiceSystem.nonzero(p, [M])
            witness = lm.find_witness(S)
            if witness is None:
                if hypothesis:
                    problems.append(f"p={p} M={M.tolist()}: hypothesis held but no witness")
                try:
                    cert = lm.failure_certificate(S)
                except Exception as exc:
                    problems.append(f"p={p} M={M.tolist()}: certificate failed: {exc}")
                    continue
                if not lm.check_pigeonhole_bound(cert, k, r):
                    problems.append(f"p={p} M={M.tolist()}: span bound violated")
                if not lm.check_contradiction_condition(cert, k, r, s):
                    problems.append(f"p={p} M={M.tolist()}: inconsistent with s^kr")
    detail = f"{checked} matrices, 0 inconsistencies" if not problems else "; ".join(problems)
    return 11, "non-vanishing maps consistency", not problems, detail


@_timed
def criterion_12_scaling_invariance(seed: int = DEFAULT_SEED) -> tuple[int, str, bool, str]:
    """Irredundance is preserved by nonzero entrywise scaling, both notions."""
    rng = np.random.default_rng(seed + 12)
    from .fp_core import scale_multiset

    violations = 0
    fp_checked = 0
    for _ in range(30):
        p = int(rng.choice([3, 5, 7]))
        n = int(rng.integers(1, 3))
        V = _seeded_irredundant(rng, p, n)
        scalars = [int(rng.integers(1, p)) for _ in range(V.size)]
        W = scale_multiset(V, scalars)
        fp_checked += 1
        if not gr.is_fp_irredundant(W, 1):
            violations += 1
    c_checked = 0
    for _ in range(20):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 3))
        size = int(rng.integers(1, 4))
        V = _random_multiset(rng, p, n, size, nonzero=True)
        scalars = [int(rng.integers(1, p)) for _ in range(V.size)]
        W = scale_multiset(V, scalars)
        c_checked += 1
        if (gr.is_c_irredundant(V) is None) != (gr.is_c_irredundant(W) is None):
            violations += 1
    detail = f"{fp_checked} modular + {c_checked} complex instances, {violations} violations"
    return 12, "scaling invariance of irredundance", violations == 0, detail


ALL_CRITERIA: list[Callable[[int], CriterionResult]] = [
    criterion_1_olson,
    criterion_2_power_threshold,
    criterion_3_fpstar,
    criterion_4_min_arithmetic,
    criterion_5_small_sets,
    criterion_6_descent,
    criterion_7_additive_basis,
    criterion_8_codim_bound,
    criterion_9_cyc_cover_equivalence,
    criterion_10_covers_suite,
    criterion_11_choosability,
    criterion_12_scaling_invariance,
]


def run_all(
    seed: int = DEFAULT_SEED,
    numbers: Optional[Sequence[int]] = None,
    echo: Optional[Callable[[str], None]] = None,
) -> list[CriterionResult]:
    if echo is None:
        echo = lambda line: print(line, flush=True)
    wanted = set(numbers) if numbers else None
    results = []
    for num, fn in enumerate(ALL_CRITERIA, start=1):
        if wanted is not None and num not in wanted:
            continue
        res = fn(seed)
        echo(res.line())
        results.append(res)
    return results
