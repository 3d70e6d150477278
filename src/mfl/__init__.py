"""Restricted matching field ideals of Schubert varieties in the flag variety.

The package computes, for a block diagonal matching field B_ell and a
permutation w, the restricted ideal obtained by setting the Schubert
vanishing variables to zero in the matching field ideal, classifies it as
zero, binomial or non-binomial, and cross-validates the combinatorial
descriptions of these classes against the brute-force oracle.
"""

from mfl.matchfield import (
    display_key,
    variable_image_key,
    verify_coherence,
    weight_key,
    weight_matrix,
)
from mfl.permcomb import (
    avoids,
    bruhat_leq,
    dominated,
    has_descending_property,
    in_zero_family,
    insert_max,
    permutation_at,
    remove_max,
    restriction,
    set_bits,
    vanishing_keys,
    zero_family,
)
from mfl.quadideal import (
    CapabilityError,
    ClassificationOutcome,
    DegreeTwoSpace,
    QuadraticRelation,
    classify_oracle,
    degree2_flag_ideal,
    quadratic_relations,
    verdict_masks,
)
from mfl.tableaux import (
    check_tableau,
    enumerate_ssyt2,
    is_standard,
    min_defining_chain2,
    ssyt_to_matching_field,
    standard_monomial_count_deg2,
    verify_bijection,
)
from mfl.theoremsets import (
    ClassificationRecord,
    classify_combinatorial,
    count_table,
    cross_validate,
    family_masks,
    in_pattern_family,
)

__version__ = "0.1.0"
