"""Exact-arithmetic toolkit for minimal log discrepancies of cyclic quotient
singularities: spectrum scans, floor-constraint region proving, congruence
lemma verifiers, and hyperquotient weight calculus."""

from .qarith import consecutive_integers, count_nondivisible, format_rat, frac
from .quotient import (CyclicQuotient, index_gcd, is_isolated, mld, mld_argmin,
                       toroidal_ld, toroidal_weight)
from .spectrum import (ScanConfig, SpectrumRecord, accumulation_report,
                       canonical_weights, distinct_values, family_example,
                       scan)

__all__ = [
    "frac", "consecutive_integers", "count_nondivisible",
    "CyclicQuotient", "toroidal_weight", "toroidal_ld", "mld", "mld_argmin", "is_isolated",
    "index_gcd",
    "ScanConfig", "SpectrumRecord", "scan", "distinct_values",
    "accumulation_report", "family_example", "canonical_weights", "format_rat",
]

__version__ = "0.1.0"
