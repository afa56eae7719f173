"""The public API of ``ffmzv``, frozen: adding or removing a name is a
deliberate change to this list, recorded with the change that makes it."""

import ffmzv

PUBLIC_API = [
    "CapTooSmall", "Composition", "DivisionByZero", "DoublingLawViolated",
    "FFMzvError", "FieldSpec", "Finite", "FormalRelation", "FqMatrix",
    "GFRing", "InvalidEvaluator", "InvalidFamilyInput", "InvalidFieldSpec",
    "InvalidPrime", "InvalidScope", "MHTInstance", "MixedModulus",
    "NotInvertible", "ParseError", "Poly", "RationalFn", "RationalRing",
    "ResidueElem", "ResidueRing", "ScopeMismatch", "SearchScope",
    "StabilizationReport", "Thm3Config", "TruncatedExact",
    "TruncatedPolyRing", "TruncationConfig", "Vadic", "Verdict",
    "ZModRing", "check_thmC", "check_thmD", "compare_with_universal",
    "enumerate_tuples", "errors", "evaluate_relation", "fields",
    "find_relations", "finite_mzv", "gen_thm2", "gen_thm3", "gen_thmA",
    "gen_thmB", "harmonic", "irreducible_polys", "is_irreducible",
    "is_q_even", "is_trivial_zero", "lfrac", "linalg", "mht_sum",
    "monic_polys", "nullspace", "parse_composition", "parse_poly", "poly",
    "poly_ext_gcd", "poly_gcd", "poly_inv_mod", "power_sums",
    "random_instance", "ratfn", "relations", "residue", "search",
    "stack_rank", "truncated_mzv", "vadic_mzv", "vadic_mzv_auto",
    "value_matrix", "vanish_degree", "zeta",
]


def test_public_api_is_the_frozen_list():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert ffmzv.__all__ == PUBLIC_API
