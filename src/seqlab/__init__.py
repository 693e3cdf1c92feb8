"""Exact enumeration workbench for words avoiding long strictly increasing
runs.

Counts words over {1..n} with r copies of each letter and no strictly
increasing subsequence of length d -- exactly, via a Young-tableau dynamic
program -- and surrounds the counts with the experimental toolkit: a
brute-force oracle, recurrence guessing/verification/extension over exact
integers, growth-constant estimation, Bessel-series determinant checks, and
an OEIS-compatible cache and lookup client.
"""

from .bessel import gessel_check
from .growth import conjectured_params, empirical_growth, estimate_constant
from .oracle import brute_count
from .partitions import syt_count
from .recurrences import extend, guess, verify
from .tableaux import avoiders_sequence, kostka_uniform

__version__ = "0.1.0"

# The names the README's Library section calls; everything else is imported
# from its submodule.
__all__ = [
    "avoiders_sequence",
    "kostka_uniform",
    "syt_count",
    "brute_count",
    "guess",
    "extend",
    "verify",
    "conjectured_params",
    "empirical_growth",
    "estimate_constant",
    "gessel_check",
]
