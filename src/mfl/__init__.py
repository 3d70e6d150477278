"""Restricted matching field ideals of Schubert varieties in the flag variety.

The package computes, for a block diagonal matching field B_ell and a
permutation w, the restricted ideal obtained by setting the Schubert
vanishing variables to zero in the matching field ideal, classifies it as
zero, binomial or non-binomial, and cross-validates the combinatorial
descriptions of these classes against the brute-force oracle.

The names below are exported lazily: ``mfl.<name>`` imports the submodule
that defines it on first access, so ``import mfl`` (and every CLI command)
loads only the layers it uses.
"""

__version__ = "0.1.0"

#: The names of the verification suites of :mod:`mfl.suites`, defined here
#: so that the CLI parser reads them without importing the suites.
SUITES = ("coherence", "theoremB", "theoremC", "P", "theoremA", "tableaux", "all")


class CapabilityError(Exception):
    """A request exceeded a configured size cap.

    Defined here, like ``SUITES``, so that the CLI catches it without
    importing a layer; :mod:`mfl.quadideal` re-exports it."""


_EXPORTS = {
    "matchfield": (
        "display_key",
        "verify_coherence",
        "weight_key",
        "weight_matrix",
    ),
    "permcomb": (
        "bruhat_leq",
        "dominated",
        "permutation_at",
        "restriction",
        "set_bits",
        "vanishing_keys",
        "zero_family",
    ),
    "quadideal": (
        "CapabilityError",
        "ClassificationOutcome",
        "QuadraticRelation",
        "classify_oracle",
        "quadratic_relations",
        "verdict_masks",
    ),
    "tableaux": (
        "check_tableau",
        "enumerate_ssyt2",
        "min_defining_chain2",
        "ssyt_to_matching_field",
        "verify_bijection",
    ),
    "theoremsets": (
        "ClassificationRecord",
        "classify_combinatorial",
        "count_table",
        "cross_validate",
        "family_masks",
    ),
}

#: ``CapabilityError`` stays listed under ``quadideal``, which re-exports it;
#: the class above binds it, so ``__getattr__`` never resolves it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["SUITES", *_MODULE_OF]


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
