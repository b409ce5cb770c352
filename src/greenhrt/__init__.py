"""Exact hyperplane-restriction bounds for graded modules.

Core pieces: Macaulay binomial representations and the numerator-decrement
operator, the piecewise restriction bound for quotients of graded free
modules, lexicographic modules with exact specialization counts, a
prime-field oracle certifying sampled restriction dimensions, brute-force
verifiers for every inequality, and the level-algebra bound comparison.
"""

from .bounds import (
    CapacityError,
    FreeModuleShape,
    braced_bound,
    green_bound,
    module_bound,
    rank2_bound,
    scaled_bound,
)
from .level import LevelHilbert, compare_bounds, load_level_table, reproduce_table
from .macaulay import MacaulayRep, kappa, macaulay_rep, rep_compare, rep_value
from .monomials import (
    MonomialIdeal,
    MonomialModule,
    degree_slice,
    lex_module,
    module_from_data,
    module_to_data,
    random_monomial_module,
)
from .oracle import generic_restriction_dim
from .verifiers import (
    check_herz_tail,
    check_higher,
    check_kappa_lemma,
    check_lex_restriction,
    check_rank2,
    check_scaled_corollary,
    nonincreasing_tuples,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "FreeModuleShape",
    "LevelHilbert",
    "MacaulayRep",
    "MonomialIdeal",
    "MonomialModule",
    "braced_bound",
    "check_herz_tail",
    "check_higher",
    "check_kappa_lemma",
    "check_lex_restriction",
    "check_rank2",
    "check_scaled_corollary",
    "compare_bounds",
    "degree_slice",
    "generic_restriction_dim",
    "green_bound",
    "kappa",
    "lex_module",
    "load_level_table",
    "macaulay_rep",
    "module_bound",
    "module_from_data",
    "module_to_data",
    "nonincreasing_tuples",
    "random_monomial_module",
    "rank2_bound",
    "rep_compare",
    "rep_value",
    "reproduce_table",
    "scaled_bound",
]
