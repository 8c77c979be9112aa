"""The package namespace exposes the documented surface."""

import importlib
import importlib.util
from pathlib import Path

import dbakit


def test_top_level_exports():
    for name in (
        "FiniteAlgebra", "FormalContext", "Sequent", "Hypersequent", "ProofScript",
        "SearchSpec", "FilterSet", "StandardContext", "RepresentationResult",
        "RetractionPair", "BooleanView", "AxiomSuite", "Equation", "Term",
        "eval_term", "satisfies_equation", "check_suite", "quasi_order", "classify",
        "project_meet", "project_join", "extract_boolean_part",
        "check_identity_catalog", "parse_term", "render", "parse_algebra",
        "render_algebra", "parse_context", "render_context", "enumerate_algebras",
        "naive_sweep", "builtin_fixtures", "derive", "modal", "enumerate_pairs",
        "protoconcept_algebra", "oo_protoconcept_algebra", "complement_context",
        "build_from_boolean_pair", "check_theorem_conditions", "glued_sum",
        "generalized_glued_sum", "powerset_boolean", "is_filter", "is_ideal",
        "is_primary", "enumerate_primary", "standard_context", "representation",
        "closed_set_family", "clopen_family", "verify_clopen_characterization",
        "parse_sequent", "parse_hypersequent", "parse_script", "axiom_match",
        "check_proof", "search_proof", "eval_sequent", "is_true_in",
        "find_countermodel", "fixture_proofs",
        "DBA23", "DCORE13", "GDCORE11", "BOOLEAN", "CATALOG", "get_suite",
    ):
        assert hasattr(dbakit, name), name


def test_version_string():
    assert dbakit.__version__


def test_traced_functions_resolve():
    # perfbench/tracer.py wraps these functions by name; a renamed or deleted
    # one would otherwise break only a --trace run of the benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, fn, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"dbakit.{module}"), fn, None)), \
            (module, fn)
