"""Exact group-ring vanishing machinery over F_p^n and its applications."""

from .errors import (
    CapExceededError,
    InvariantViolationError,
    NotInSpanError,
    PreconditionError,
    SearchBudgetExceededError,
)
from .fp_core import (
    FpMultiset,
    FpVector,
    PrimeModulus,
    enumerate_vectors,
    scale_multiset,
    span_dimension,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "InvariantViolationError",
    "NotInSpanError",
    "PreconditionError",
    "SearchBudgetExceededError",
    "FpMultiset",
    "FpVector",
    "PrimeModulus",
    "enumerate_vectors",
    "scale_multiset",
    "span_dimension",
    "__version__",
]
