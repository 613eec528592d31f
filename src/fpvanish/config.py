"""Default size caps and search budgets.

All caps are overridable per call; these module constants only provide the
defaults.  Dense group-ring elements are tables of p^n coefficients, so
RING_SIZE_CAP bounds memory for a single element, for the reachable-sums
table of the representability oracle, and the work of the product and
cover oracles over all twists.
"""

from __future__ import annotations

# Largest dense group-ring table (p^n entries) built by default; also the
# most cyclotomic-product cells (p^|V| * p^n * (p-1)) product_twist_verdicts
# computes.  It grows its table one twist axis per entry and never builds the
# full one: it holds at most three (p-1, p^n, p^(|V|-1)) tables, 1/p of the
# cells each (four for r >= 2, with the previous power).  Also the most
# covering-table work (p^|V| cells for each of p^n points) of
# cover_twist_verdicts and is_c_irredundant.
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

# Exact-width guard for dense F_p and Z[w] tables: a table whose arithmetic can
# reach this value (3x the coefficient bound of a cyclotomic product) is
# computed in exact Python integers; below it, at the narrowest of int8, int16,
# int32 and int64 that holds the value (group_ring._coef_dtype).
INT64_SAFE_BOUND = 2**62
