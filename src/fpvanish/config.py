"""Default size caps and search budgets.

All caps are overridable per call; these module constants only provide the
defaults.  Dense group-ring elements are tables of p^n coefficients, so
RING_SIZE_CAP bounds memory for a single element, for the reachable-sums
table of the representability oracle and for the batched twist tables of
the product oracle, and the work of the cover oracle.
"""

from __future__ import annotations

# Largest dense group-ring table (p^n entries) built by default; also the
# largest batch of cyclotomic product tables (p^|V| * p^n * (p-1) int64
# cells, 80 MB) that product_twist_verdicts allocates, and the most covering
# table updates (p^|V| cells for each of p^n points) cover_twist_verdicts makes.
RING_SIZE_CAP = 10**7

# Largest abelian group order for exact coset-cover searches.
GROUP_ORDER_CAP = 16
GROUP_ORDER_CAP_PRUNED = 32

# Largest twist-search space p^|V| for complex-vanishing searches.
TWIST_SEARCH_CAP = 10**6

# Exhaustive minimization cap for arithmetic sets (r = 1).
MIN_ARITHMETIC_P_CAP = 31

# Verifier-call budget for the randomized small-arithmetic-set search.
SMALL_SET_SEARCH_BUDGET = 60_000

# int64 coefficient-growth guard for cyclotomic tables: promote to exact
# Python integers once a conservative L1 bound crosses this threshold.
INT64_SAFE_BOUND = 2**62
