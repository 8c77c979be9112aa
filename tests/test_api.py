"""The package namespace exposes the documented surface."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import dbakit


# The public API, sorted: a name that leaves, joins or is renamed fails here.
PUBLIC_NAMES = [
    "AlgebraError", "AxiomSchema", "AxiomSuite", "BOOLEAN", "BooleanView", "BudgetError",
    "CATALOG", "CheckReport", "ClassificationReport", "ClopenCharacterization",
    "ConceptPair", "ConditionReport", "ConstructionError", "DBA23", "DCORE13",
    "DbakitError", "Equation", "EquationVerdict", "EvalError", "FilterSet", "FiniteAlgebra",
    "FormalContext", "GDCORE11", "GeneralizedSum", "Hypersequent", "LogicError",
    "PairAlgebra", "ParseError", "ProofLine", "ProofScript", "QuasiOrder",
    "RepresentationResult", "RetractionPair", "SearchSpec", "SearchSummary", "Sequent",
    "StandardContext", "SuiteError", "SuiteReport", "Term", "all_contexts", "axiom_match",
    "build_from_boolean_pair", "builtin_fixtures", "candidate_count", "canonical_pairs",
    "check_identity_catalog", "check_proof", "check_suite", "check_theorem_conditions",
    "classify", "clopen_family", "closed_set_family", "complement_context", "derive",
    "enumerate_algebras", "enumerate_pairs", "enumerate_primary", "eval_sequent",
    "eval_term", "extract_boolean_part", "falsifying_env", "find_countermodel",
    "fixture_proofs", "generalized_glued_sum", "get_fixture", "get_suite", "glued_sum",
    "is_boolean_algebra", "is_filter", "is_ideal", "is_primary", "is_true_in",
    "iter_algebras", "join_idempotents", "meet_idempotents", "modal",
    "oo_protoconcept_algebra", "pair_flags", "parse_algebra", "parse_context",
    "parse_hypersequent", "parse_script", "parse_sequent", "parse_term", "passes",
    "powerset_boolean", "project_join", "project_meet", "protoconcept_algebra",
    "quasi_order", "render", "render_algebra", "render_context", "render_script",
    "representation", "satisfies_equation", "search_proof", "standard_context",
    "variables", "verify_clopen_characterization", "verify_clopen_sets",
    "verify_derivation_identities", "verify_pair_embedding", "verify_translated_continuity",
]


def test_all_is_exactly_the_names_the_package_imports():
    tree = ast.parse(Path(dbakit.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert dbakit.__all__ == imported
    namespace = {}
    exec("from dbakit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_top_level_exports():
    assert sorted(dbakit.__all__) == PUBLIC_NAMES
    assert len(set(dbakit.__all__)) == len(dbakit.__all__)
    for name in PUBLIC_NAMES:
        assert hasattr(dbakit, name), name
    # the oracles live in tests/oracles.py, outside the package
    for module in (dbakit, dbakit.search, dbakit.representation):
        for name in ("naive_sweep", "enumerate_primary_naive", "NAIVE_SWEEP_LIMIT"):
            assert not hasattr(module, name), (module.__name__, name)
    # a sequent builder only the tests call
    assert not hasattr(dbakit.logic, "seq")


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


def test_readme_library_example_runs():
    # the README's one python block exercises the documented API, so the
    # example cannot rot without a failing test
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["rep"].isomorphism


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


def test_generated_code_runs_in_three_places_only():
    # terms carry no compiled code: a term's value comes from a fold; the
    # first-witness kernel compiles the loop nests it writes, ``source`` is
    # compiled only by the model search's check of an equation, and the proof
    # search compiles each axiom schema's match into one test
    src = Path(dbakit.__file__).resolve().parent
    sites = []
    for path in sorted(src.glob("*.py")):
        sites += _generated_code_sites(ast.parse(path.read_text()), path.stem)
    assert sites == ["algebra._kernel", "logic._axiom_test", "search._checker"]


def _fca_calls(tree, stem):
    """The fca functions a module calls: by the name it imports them under,
    as ``fca.<name>``, or, in fca itself, by their own name."""
    local = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "fca"
             for alias in node.names}
    if stem == "fca":
        local.update((node.name, node.name) for node in tree.body
                     if isinstance(node, ast.FunctionDef))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in local:
                yield local[func.id]
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id == "fca"):
                yield func.attr


def test_only_fca_derives_in_a_context():
    # the other modules read a context through fca's completion tables and
    # pair algebras, never through one derivation or modal image at a time
    src = Path(dbakit.__file__).resolve().parent
    callers = {path.stem for path in sorted(src.glob("*.py"))
               if {"derive", "modal", "complement_context"}
               & set(_fca_calls(ast.parse(path.read_text()), path.stem))}
    assert callers == {"fca"}
