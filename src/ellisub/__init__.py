"""Structural analysis of bijective constant-length substitution shifts.

The library computes, for a primitive aperiodic bijective substitution, the
algebraic skeleton of the shift's enveloping semigroup: the R-set and
structure group, little structure group and its normal completion, the
generalized and classical heights, the structural semigroup in normalized
Rees matrix form, the degree grading, fiber-preserving automorphisms, and a
symbolic description of the global semigroup.  A finite-window dynamical
oracle reads the fiber maps of shift iterates off the rules alone and
cross-checks them against the fiber action of the matrix.
"""

from .errors import (EllisubError, InternalCheckError, ParseError,
                     ResourceLimitError, ValidationError)
from .oracle import OracleComparison, limit_maps, oracle_equivalence
from .perms import (PermGroup, centralizer_in_symmetric, closure,
                    cycle_string, group_name, normal_closure)
from .pipeline import (AnalysisConfig, StructuralReport, analyze_substitution,
                       check_input, classical_height_bruteforce,
                       global_description, heights, r_set, structure_group)
from .rees import FiberAction, ReesMatrixSemigroup, substitution_sandwich
from .semigroups import TransformationSemigroup
from .substitution import (Alphabet, AperiodicityVerdict, Substitution,
                           TwoWordFiber, allowed_two_words, columns,
                           is_aperiodic, is_bijective, parse_any,
                           parse_substitution, substitution_power,
                           substitution_to_json)

__version__ = "4.0.0"
