"""Structural analysis of bijective constant-length substitution shifts.

The library computes, for a primitive aperiodic bijective substitution, the
algebraic skeleton of the shift's enveloping semigroup: the R-set and
structure group, little structure group and its normal completion, the
generalized and classical heights, the structural semigroup in normalized
Rees matrix form, the degree grading, fiber-preserving automorphisms, and a
symbolic description of the global semigroup.  A finite-window dynamical
oracle rebuilds the structural semigroup from shift iterates alone and
cross-checks every map.
"""

from .errors import (EllisubError, InternalCheckError, ParseError,
                     ResourceLimitError, ValidationError)
from .oracle import (OracleComparison, OracleResult, limit_maps,
                     oracle_equivalence, proximality_classes)
from .perms import (PermGroup, centralizer_in_symmetric, closure,
                    cycle_string, element_order, group_fingerprint,
                    group_name, is_normal, is_transitive, normal_closure,
                    quotient_data)
from .pipeline import (AnalysisConfig, Heights, StructuralReport,
                       analyze_substitution, automorphism_data,
                       classical_height_bruteforce, degree_map,
                       global_description, heights, r_set, structure_group)
from .rees import (ReesElement, ReesMatrixSemigroup,
                   as_transformation_semigroup, idempotent_generated,
                   idempotents_of, little_structure_group, multiply,
                   presentations_isomorphic, rees_decomposition,
                   substitution_sandwich, verify_rees_isomorphism)
from .semigroups import (GreenStructure, TransformationSemigroup,
                         green_structure, is_completely_simple,
                         semigroup_closure)
from .substitution import (Alphabet, AperiodicityVerdict, Substitution,
                           TwoWordFiber, allowed_two_words, columns,
                           compose_substitutions, is_aperiodic,
                           is_bijective, is_primitive, is_simplified,
                           letter_at, parse_any, parse_substitution,
                           simplify, substitution_from_json,
                           substitution_power, substitution_to_json,
                           substitution_to_text)

__version__ = "1.0.0"
