"""dbakit: a finite-model toolkit for double Boolean algebras.

Algebras are total operation tables over an indexed universe; the package
checks the axiom suites (full, reduced, generalized, Boolean), classifies
algebras, builds protoconcept/semiconcept algebras from formal contexts,
assembles algebras from Boolean parts (glued sums and embedding-retraction
pairs), computes the primary-filter/ideal representation with its finite
clopen-set topology, and checks/searches derivations in the sequent
calculus L and the hypersequent calculus HL.
"""

from .algebra import (
    ClassificationReport, EquationVerdict, FiniteAlgebra, QuasiOrder, SuiteReport,
    check_identity_catalog, check_suite, classify, eval_term, extract_boolean_part,
    is_boolean_algebra, join_idempotents, meet_idempotents, passes, project_join,
    project_meet, quasi_order, satisfies_equation,
)
from .constructions import (
    BooleanView, ConditionReport, GeneralizedSum, RetractionPair,
    build_from_boolean_pair, canonical_pairs, check_theorem_conditions,
    generalized_glued_sum, glued_sum, powerset_boolean,
)
from .errors import (
    AlgebraError, BudgetError, ConstructionError, DbakitError, EvalError,
    LogicError, ParseError, SuiteError,
)
from .fca import (
    ConceptPair, FormalContext, PairAlgebra, all_contexts, complement_context,
    derive, enumerate_pairs, modal, oo_protoconcept_algebra, pair_flags,
    protoconcept_algebra,
)
from .fileformats import parse_algebra, parse_context, render_algebra, render_context
from .fixtures import builtin_fixtures, get_fixture
from .logic import (
    AxiomSchema, CheckReport, Hypersequent, ProofLine, ProofScript, Sequent,
    axiom_match, check_proof, eval_sequent, falsifying_env, find_countermodel,
    fixture_proofs, is_true_in, parse_hypersequent, parse_script, parse_sequent,
    render_script, search_proof,
)
from .representation import (
    ClopenCharacterization, FilterSet, RepresentationResult, StandardContext,
    clopen_family, closed_set_family, enumerate_primary,
    is_filter, is_ideal, is_primary, representation, standard_context,
    verify_clopen_characterization, verify_clopen_sets,
    verify_derivation_identities, verify_pair_embedding,
    verify_translated_continuity,
)
from .search import (
    SearchSpec, SearchSummary, candidate_count, enumerate_algebras, iter_algebras,
)
from .suites import BOOLEAN, CATALOG, DBA23, DCORE13, GDCORE11, get_suite
from .terms import AxiomSuite, Equation, Term, parse_term, render, variables

# The public API: exactly the names imported above.
__all__ = [
    "ClassificationReport", "EquationVerdict", "FiniteAlgebra", "QuasiOrder",
    "SuiteReport", "check_identity_catalog", "check_suite", "classify", "eval_term",
    "extract_boolean_part", "is_boolean_algebra", "join_idempotents",
    "meet_idempotents", "passes", "project_join", "project_meet", "quasi_order",
    "satisfies_equation",
    "BooleanView", "ConditionReport", "GeneralizedSum", "RetractionPair",
    "build_from_boolean_pair", "canonical_pairs", "check_theorem_conditions",
    "generalized_glued_sum", "glued_sum", "powerset_boolean",
    "AlgebraError", "BudgetError", "ConstructionError", "DbakitError", "EvalError",
    "LogicError", "ParseError", "SuiteError",
    "ConceptPair", "FormalContext", "PairAlgebra", "all_contexts",
    "complement_context", "derive", "enumerate_pairs", "modal",
    "oo_protoconcept_algebra", "pair_flags", "protoconcept_algebra",
    "parse_algebra", "parse_context", "render_algebra", "render_context",
    "builtin_fixtures", "get_fixture",
    "AxiomSchema", "CheckReport", "Hypersequent", "ProofLine", "ProofScript",
    "Sequent", "axiom_match", "check_proof", "eval_sequent", "falsifying_env",
    "find_countermodel", "fixture_proofs", "is_true_in", "parse_hypersequent",
    "parse_script", "parse_sequent", "render_script", "search_proof",
    "ClopenCharacterization", "FilterSet", "RepresentationResult",
    "StandardContext", "clopen_family", "closed_set_family", "enumerate_primary",
    "is_filter", "is_ideal", "is_primary", "representation", "standard_context",
    "verify_clopen_characterization", "verify_clopen_sets",
    "verify_derivation_identities", "verify_pair_embedding",
    "verify_translated_continuity",
    "SearchSpec", "SearchSummary", "candidate_count", "enumerate_algebras",
    "iter_algebras",
    "BOOLEAN", "CATALOG", "DBA23", "DCORE13", "GDCORE11", "get_suite",
    "AxiomSuite", "Equation", "Term", "parse_term", "render", "variables",
]

__version__ = "0.1.0"
