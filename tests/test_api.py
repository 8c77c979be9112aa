"""The package namespace exposes the documented surface."""

import ast
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


def _generated_code_sites(tree, scope):
    """Dotted scope of every bare exec/eval/compile call under tree."""
    sites = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("exec", "eval", "compile")):
            sites.append(scope)
        sites += _generated_code_sites(node, inner)
    return sites


def test_generated_code_runs_in_two_places_only():
    # terms carry no compiled code: a term's value comes from a fold, and
    # ``source`` is compiled only by the first-witness kernel and by the
    # model search's check of an equation
    src = Path(dbakit.__file__).resolve().parent
    sites = []
    for path in sorted(src.glob("*.py")):
        sites += _generated_code_sites(ast.parse(path.read_text()), path.stem)
    assert sites == ["algebra._kernel", "search._checker"]
