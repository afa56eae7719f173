"""Exact arithmetic for zeta values over rational function fields F_q(t):
power sums, truncated/finite/v-adic multiple zeta values, universal relation
families, relation search at fixed v-adic precision, and a generic
harmonic-sum identity checker over commutative rings."""

from .errors import (CapTooSmall, DivisionByZero, DoublingLawViolated,
                     FFMzvError, InvalidEvaluator, InvalidFamilyInput,
                     InvalidFieldSpec, InvalidPrime, InvalidScope,
                     MixedModulus, NotInvertible, ParseError, ScopeMismatch)
from .fields import FieldSpec
from .harmonic import (GFRing, MHTInstance, RationalRing, TruncatedPolyRing,
                       ZModRing, check_thmC, check_thmD, mht_sum,
                       random_instance)
from .linalg import FqMatrix, nullspace, stack_rank
from .poly import (Poly, irreducible_polys, is_irreducible, monic_polys,
                   parse_poly, poly_ext_gcd, poly_gcd)
from .power_sums import vanish_degree
from .ratfn import RationalFn
from .relations import (FormalRelation, Thm3Config, evaluate_relation,
                        gen_thm2, gen_thm3, gen_thmA, gen_thmB, is_q_even,
                        is_trivial_zero)
from .residue import (AtLeast, ResidueElem, ResidueRing, poly_inv_mod,
                      v_valuation)
from .search import (SearchScope, compare_with_universal, enumerate_tuples,
                     find_relations, value_matrix)
from .zeta import (Composition, Finite, StabilizationReport, TruncatedExact,
                   TruncationConfig, Vadic, Verdict, finite_mzv,
                   parse_composition, truncated_mzv, vadic_mzv, vadic_mzv_auto)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
