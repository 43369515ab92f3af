"""Constructive witnesses for both signs of the Liouville function on n^2 + d.

For any nonzero integer d the library produces verified integers n with
lambda(n^2 + d) = -1 and +1, via genus theory of binary quadratic forms:
an auxiliary square-free integer M with lambda(M) = -lambda(d) is constructed
so that a prescribed ambiguous form of discriminant 4dM is the unique one in
the principal genus, which forces a Pell-type identity n^2 + d = d M k^2.

The exported names are bound on first access (PEP 562): each one imports only
the module that defines it, so `import liouwit` loads nothing but this file.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "arith": (
        "DEFAULT_PRIME_SEARCH_CAP",
        "PRIMALITY_DETERMINISTIC_BOUND",
        "ResidueClass",
        "crt_merge",
        "delta_char",
        "eta_char",
        "integer_sqrt",
        "is_prime",
        "jacobi",
        "next_prime_in_class",
    ),
    "construct": (
        "ResidueConstraint",
        "construct_M",
        "construct_prime_pair",
        "ordered_prime_list",
        "residue_constraints",
    ),
    "errors": (
        "ConstraintInfeasibleError",
        "FactorBudgetExceededError",
        "InternalInvariantError",
        "InvalidInputError",
        "LiouwitError",
        "SearchExhaustedError",
        "VerificationError",
    ),
    "factor": (
        "BRUTE_SCAN_BOUND",
        "DEFAULT_FACTOR_BUDGET",
        "Factorization",
        "factorize",
        "liouville",
        "merge_factorizations",
        "squarefree_core",
    ),
    "forms": (
        "AmbiguousCandidateList",
        "enumerate_ambiguous_candidates",
        "evaluate",
        "half_parameters",
        "represented_value_coprime",
        "split_parameters",
    ),
    "genus": (
        "GenericValues",
        "assigned_characters",
        "generic_values",
        "in_principal_genus",
    ),
    "pell": (
        "CFExpansion",
        "PellFundamental",
        "cf_sqrt",
        "fundamental_solution",
        "principal_class_ambiguous",
        "solve_generalized",
        "unit_norm",
    ),
    "verify": (
        "CharacterSystem",
        "ClauseResult",
        "GeneralizedSolution",
        "M_CLAUSES",
        "MCertificate",
        "PAIR_CLAUSES",
        "PrimePairCertificate",
        "QuadForm",
        "SymbolTarget",
        "VerificationReport",
        "mod8_class",
        "symbol_targets",
        "verify_certificate",
        "verify_prime_pair",
        "with_checks",
    ),
    "witness": (
        "SignChangeReport",
        "Witness",
        "WitnessPlan",
        "minus_witnesses",
        "plan",
        "plus_witnesses",
        "sign_change_report",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import the module that exports `name`, and bind the name here for later reads."""
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
