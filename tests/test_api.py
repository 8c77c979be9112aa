"""The package namespace exposes the documented surface."""

import ast
import importlib
import importlib.util
import re
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
        "iter_algebras", "builtin_fixtures", "derive", "modal", "enumerate_pairs",
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
    # the oracles live in tests/oracles.py, outside the package
    for module in (dbakit, dbakit.search, dbakit.representation):
        for name in ("naive_sweep", "enumerate_primary_naive", "NAIVE_SWEEP_LIMIT"):
            assert not hasattr(module, name), (module.__name__, name)


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
