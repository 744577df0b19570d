"""Finite skew monoidal categories, skew multicategories, and the
correspondence between them, with exhaustive axiom checkers for desk-scale
structures."""

from .fincat import (
    FinCategory, Functor, StructureError, Violation, check_category, check_functor,
    opposite_category, is_epimorphism,
)
from .catoperad import (
    CatOperad, make_terminal_operad, make_R_operad, make_L_operad,
    dual_operad, operad_by_name, check_operad_axioms,
)
from .tmulticat import (
    MultiMap, TMulticategory, make_multicat,
    terminal_multicat, check_tmulticat,
    from_tight_subsets, all_tight, loose_part,
    MulticatMorphism, check_morphism, iso_search,
)
from .representability import (
    ClosedStructure, NotLeftRepresentable,
    find_universal, is_weakly_representable, is_left_representable,
    build_inductive_classifiers, check_left_representability_equivalences,
    find_closed_structure, check_closed_representability_equivalences, analyze,
)
from .colaxalg import (
    NormalColaxAlgebra, check_colax_algebra, has_strict_left_bracketing,
    multicat_to_colax, colax_to_multicat, left_bracketed_classifier_table,
)
from .skewmon import (
    SkewMonoidalCategory, LaxMonoidalFunctor, make_skew_monoidal,
    check_skew_monoidal, is_left_normal, lambda_all_epi,
    is_closed_skew_monoidal, left_bracketed_tensor, check_lax_monoidal,
    monoidal_iso_search,
)
from .correspondence import (
    monoidal_to_multicat, multicat_to_monoidal,
    roundtrip_monoidal, roundtrip_multicat, check_loose_classifier_adjunction,
    classify,
)
from .search import enumerate_skew_structures

__all__ = [name for name in dir() if not name.startswith("_")]
