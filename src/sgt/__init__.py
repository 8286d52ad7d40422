"""sgt: a toolkit for finite semigroups given by multiplication tables."""

from .core import (AssociativityViolation, Classification, DegreeMismatch,
                   FiniteSemigroup, InternalAssertFailure, NotAnIdeal,
                   RangeError, Transformation, adjoin_identity,
                   adjoin_zero, classify, direct_product, from_cayley,
                   from_transformations, rees_quotient, sub_semigroup,
                   subsemigroup_closure)
from .congruence import (CapExceeded, CongruenceLattice, Disconnected,
                         FORMAL_IDENTITY, NotTwoSided, PairSet,
                         RightCongruence, XSequence, XStep,
                         enumerate_right_congruences, find_x_sequence,
                         identity_congruence, join, minimal_generating_pairs,
                         pair_set, quotient_semigroup, rc_diameter,
                         rc_generate, right_congruence, universal_congruence,
                         within_class_pairs)
from .green import GreenData, SchutzGroup, green_data, maximal_subgroups, schutzenberger
from .structure import (Decomposition, InvalidGroup, MismatchedInput,
                        NotCommutative, NotCompletelyRegular,
                        NotCompletelySimple, RaggedMatrix, ReesStructure,
                        ZERO, archimedean_decomposition,
                        completeness_check, cr_decomposition,
                        diagonal_cyclic_witness, h_congruence_check,
                        rees_construct, rees_coordinates, rees_structure,
                        theta_congruence)
from .verify import (NoInternalIdentity, NotGenerating, NotHomomorphism,
                     NotMonoids, NotRefinement, NotSurjective,
                     PreconditionFailed, VerificationReport, sweep,
                     verify_dp_gens, verify_extend_gens, verify_fg_gens,
                     verify_ideal_gens, verify_lclass_gens,
                     verify_quotient_gens, verify_schutz_gens)
from .library import library

__all__ = [name for name in dir() if not name.startswith("_")]
