"""Command-line interface: exit codes, deterministic output, examples."""

import contextlib
import io
import random
import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dbakit import algebra, cli, logic, models, search
from dbakit.cli import MAX_EMIT_PAIRS, MAX_PROOF_DEPTH, main
from dbakit.constructions import BooleanView, glued_sum, powerset_boolean
from dbakit.errors import BudgetError
from dbakit.fileformats import render_algebra, render_context
from dbakit.fca import (
    MAX_COMPLETION_ENTRIES, FormalContext, all_contexts, enumerate_pairs, protoconcept_algebra,
)
from dbakit.fixtures import (
    boolean2, builtin_fixtures, cex_5ab, chain3, noncontextual4, singleton,
)
from dbakit.logic import fixture_proofs, render_script
from dbakit.models import MAX_MODEL_CELLS, MAX_MODEL_SEARCH_SIZE
from dbakit.search import MAX_SEARCH_SIZE
from dbakit.terms import MAX_DEPTH


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, alg in (("cex", cex_5ab()), ("chain3", chain3()),
                      ("one", singleton()), ("b2", boolean2())):
        p = tmp_path / f"{name}.dba"
        p.write_text(render_algebra(alg))
        paths[name] = str(p)
    ctx = FormalContext(["g"], ["m"], [[True]])
    p = tmp_path / "ctx.cxt"
    p.write_text(render_context(ctx))
    paths["ctx"] = str(p)
    p = tmp_path / "latin.dba"
    p.write_bytes(bytes.fromhex("fffe00626164"))
    paths["latin"] = str(p)
    paths["dir"] = tmp_path
    return paths


@pytest.fixture()
def fresh_families(monkeypatch):
    """An empty ``refute --models`` family store (``models._FAMILIES``, a
    new ``_LRU`` of the same bound and floor) for the test, dropped after
    it: a family built by a stubbed builder never reaches another test.
    Returns the store."""
    store = algebra._LRU(models._FAMILIES.bound, models._FAMILIES.floor)
    monkeypatch.setattr(models, "_FAMILIES", store)
    return store


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_check_counterexample_dcore(files, capsys):
    code, out = run(capsys, "check", files["cex"], "--suite", "dcore")
    assert code == 1
    assert "5a: FAIL x=b y=b" in out
    assert "5b: FAIL" in out
    assert "pass: false" in out


def test_check_singleton_dba(files, capsys):
    code, out = run(capsys, "check", files["one"], "--suite", "dba")
    assert code == 0
    assert "pass: true" in out


def test_missing_file_is_usage_error(files, capsys):
    code, out = run(capsys, "check", str(files["dir"] / "absent.dba"))
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    (["prove", "x", "--depth", "0"], "argument --depth: must be at least 1, got 0"),
    (["check", "{b2}", "--suite", "nope"], "argument --suite: invalid choice: 'nope'"),
    (["check", "{b2}", "--bogus"], "unrecognized arguments: --bogus"),
    (["check", "{dir}/absent.dba"], "cannot read "),
    (["check", "{latin}"], "cannot read "),
    (["protoconcepts", "{ctx}", "--emit-algebra", "{dir}/absent/o.dba"], "cannot write "),
    (["construct", "glued-sum", "{b2}", "{b2}", "--out", "{dir}/absent/o.dba"], "cannot write "),
    (["represent", "{b2}", "--emit-context", "{dir}/absent/o.cxt"], "cannot write "),
    (["prove", "x => => x"], "unexpected token"),
])
def test_every_usage_error_prints_an_error_line_on_stdout(files, capsys, argv, message):
    # argparse's errors (top-level parser and subparsers) and the commands'
    # own errors share one channel; argparse's usage text stays on stderr
    code = main([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.startswith("error: " + message)
    assert captured.out.count("\n") == 1
    assert "error" not in captured.err


def test_parse_error_is_exit_2(files, capsys):
    bad = files["dir"] / "bad.dba"
    bad.write_text("elements: a\nmeet:\nzz\n")
    code, out = run(capsys, "check", str(bad))
    assert code == 2


def test_classify_chain(files, capsys):
    code, out = run(capsys, "classify", files["chain3"])
    assert code == 0
    assert "pure: true" in out and "trivial: true" in out


def test_classify_non_dba_still_reports(files, capsys):
    code, out = run(capsys, "classify", files["cex"])
    assert code == 0
    assert "dba: false" in out


def test_protoconcepts_listing_and_emission(files, capsys, tmp_path):
    out_dba = tmp_path / "proto.dba"
    code, out = run(capsys, "protoconcepts", files["ctx"], "--kind", "proto",
                    "--emit-algebra", str(out_dba))
    assert code == 0
    assert "count: 4" in out
    code2, out2 = run(capsys, "check", str(out_dba), "--suite", "dba")
    assert code2 == 0


def test_protoconcepts_counts_nest(files, capsys):
    _, out_semi = run(capsys, "protoconcepts", files["ctx"], "--kind", "semi")
    _, out_proto = run(capsys, "protoconcepts", files["ctx"], "--kind", "proto")
    n_semi = int(out_semi.split("count: ")[1].split()[0])
    n_proto = int(out_proto.split("count: ")[1].split()[0])
    assert n_semi <= n_proto


@pytest.mark.parametrize("kind, count", [("proto", 8217), ("oo-semi", 8080)])
def test_protoconcepts_emission_past_the_limit_is_exit_3(files, capsys, monkeypatch,
                                                         kind, count):
    # the pair count is checked before any table is built or file written
    rng = random.Random(3)
    ctx = FormalContext([f"g{i}" for i in range(12)], [f"m{i}" for i in range(12)],
                        [[rng.random() < 0.5 for _ in range(12)] for _ in range(12)])
    path = files["dir"] / "big.cxt"
    path.write_text(render_context(ctx))
    out_dba = files["dir"] / "big.dba"

    def never(*args):
        raise AssertionError("the algebra was built")

    monkeypatch.setattr(cli, "protoconcept_algebra", never)
    monkeypatch.setattr(cli, "oo_protoconcept_algebra", never)
    code, out = run(capsys, "protoconcepts", str(path), "--kind", kind,
                    "--emit-algebra", str(out_dba))
    assert code == 3
    assert out == (f"budget exceeded: --emit-algebra on {count} pairs, "
                   f"more than the limit of {MAX_EMIT_PAIRS}\n")
    assert not out_dba.exists()


def test_protoconcepts_on_a_context_too_wide_for_the_tables_is_exit_3(files, capsys):
    # a one-object context with 17 attributes: 2 + 2**17 table entries
    ctx = FormalContext(["g"], [f"m{i}" for i in range(17)], [[True] * 8 + [False] * 9])
    path = files["dir"] / "wide.cxt"
    path.write_text(render_context(ctx))
    code, out = run(capsys, "protoconcepts", str(path), "--kind", "semi")
    assert code == 3
    assert out == ("budget exceeded: completion tables of a 1x17 context need "
                   f"131074 entries, more than the limit of {MAX_COMPLETION_ENTRIES}\n")


def test_construct_glued_sum(files, capsys):
    code, out = run(capsys, "construct", "glued-sum", files["b2"], files["b2"])
    assert code == 0
    assert "pure: true" in out and "trivial: true" in out
    assert "elements: 3" in out


def test_construct_from_booleans_and_broken_retraction(files, capsys):
    code, out = run(capsys, "construct", "from-booleans", files["b2"], files["b2"],
                    "--size", "3", "--r", "0,1,1", "--e", "0,1",
                    "--rp", "0,0,1", "--ep", "1,2")
    assert code == 0
    assert "conditions: true" in out and "dba: true" in out
    code2, out2 = run(capsys, "construct", "from-booleans", files["b2"], files["b2"],
                      "--size", "3", "--r", "0,0,1", "--e", "0,1",
                      "--rp", "0,0,1", "--ep", "1,2")
    assert code2 == 2  # r(e(1)) != 1


@pytest.mark.parametrize("omit", [("--size",), ("--r",), ("--e",), ("--rp",), ("--ep",),
                                  ("--size", "--ep")])
def test_construct_from_booleans_missing_flag_is_usage_error(files, capsys, omit):
    flags = {"--size": "3", "--r": "0,1,1", "--e": "0,1", "--rp": "0,0,1", "--ep": "1,2"}
    argv = [arg for flag, value in flags.items() if flag not in omit for arg in (flag, value)]
    code, out = run(capsys, "construct", "from-booleans", files["b2"], files["b2"], *argv)
    assert code == 2
    assert out == f"error: from-booleans needs {' '.join(omit)}\n"


@pytest.mark.parametrize("argv, flag, minimum", [
    (["construct", "from-booleans", "{b2}", "{b2}", "--size", "-1", "--r", "0",
      "--e", "0", "--rp", "0", "--ep", "0"], "--size", 1),
    (["construct", "from-booleans", "{b2}", "{b2}", "--size", "0"], "--size", 1),
    (["prove", "x => x", "--depth", "0"], "--depth", 1),
    (["prove", "x => x", "--depth", "-3"], "--depth", 1),
    (["search", "--size", "1", "--limit", "0"], "--limit", 1),
    (["search", "--size", "1", "--max-candidates", "-1"], "--max-candidates", 0),
    (["search", "--size", "0"], "--size", 1),
])
def test_numeric_flag_below_minimum_is_usage_error(files, capsys, argv, flag, minimum):
    code = main([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    value = argv[argv.index(flag) + 1]
    assert captured.out == f"error: argument {flag}: must be at least {minimum}, got {value}\n"
    assert captured.err.startswith("usage: dbakit ")
    assert "error" not in captured.err


def test_numeric_flag_at_minimum_is_accepted(files, capsys):
    code, out = run(capsys, "search", "--size", "1", "--require", "dba", "--limit", "1")
    assert "models: 1" in out  # stopping at the limit leaves the sweep incomplete
    code, out = run(capsys, "search", "--size", "1", "--max-candidates", "0")
    assert code == 3 and "complete: false" in out
    code, out = run(capsys, "prove", "x => x", "--depth", "1")
    assert code == 0 and "proved: true" in out
    assert main(["search", "--size", "x1"]) == 2
    assert capsys.readouterr().out == "error: argument --size: invalid int value: 'x1'\n"


def test_construct_gen_glued_sum_empty_overlap(files, capsys):
    code, out = run(capsys, "construct", "gen-glued-sum", files["b2"], files["b2"])
    assert code == 0
    assert "elements: 4" in out
    assert "order_antisymmetric: false" in out


def test_represent_chain(files, capsys):
    code, out = run(capsys, "represent", files["chain3"], "--verify", "all")
    assert code == 0
    assert "primary_filters: 1" in out
    assert "pass: true" in out


def test_represent_emits_standard_context(files, capsys, tmp_path):
    out_cxt = tmp_path / "std.cxt"
    code, out = run(capsys, "represent", files["chain3"], "--emit-context", str(out_cxt))
    assert code == 0
    text = out_cxt.read_text()
    assert text == "objects: F0\nattributes: I0\nX\n"


def test_represent_requires_dba(files, capsys):
    code, out = run(capsys, "represent", files["cex"])
    assert code == 2


def test_represent_past_20_elements(capsys, tmp_path):
    # the protoconcept algebra of the diagonal 4x4 context has 26 elements
    cxt, dba = tmp_path / "diag.cxt", tmp_path / "diag.dba"
    cxt.write_text("objects: g0 g1 g2 g3\nattributes: m0 m1 m2 m3\n"
                   "X...\n.X..\n..X.\n...X\n")
    code, out = run(capsys, "protoconcepts", str(cxt), "--emit-algebra", str(dba))
    assert code == 0 and "algebra_elements: 26" in out.splitlines()
    code, out = run(capsys, "represent", str(dba))
    assert code == 0
    verdicts = out.split("---\n")[1].splitlines()
    assert sum(line.endswith(": ok") for line in verdicts) == 13
    assert "isomorphism: ok" in verdicts
    assert "clopen_protoconcept_characterization: ok" in verdicts
    assert verdicts[-1] == "pass: true"
    # the size flag is gone
    code, out = run(capsys, "represent", str(dba), "--max-size", "30")
    assert code == 2
    assert out == "error: unrecognized arguments: --max-size 30\n"


def test_represent_and_refutation_check_no_suite_but_dba23(fresh_records, capsys, tmp_path,
                                                            monkeypatch):
    # the contextual, fully contextual and pure flags need DBA23 and the
    # tables, never DCORE13 or GDCORE11: on algebras no earlier check has
    # seen, the input's record holds the DBA23 report only, and no
    # classification
    ctx = FormalContext(["g1", "g2"], ["m1", "m2"], [[True, False], [True, True]])
    fully = protoconcept_algebra(ctx).algebra
    for alg, status in ((fully, "protoconcept"), (chain3(), "semiconcept"),
                        (noncontextual4(), None)):
        record = algebra._facts_of(alg)
        assert not record.suites
        path = tmp_path / "in.dba"
        path.write_text(render_algebra(alg))
        code, out = run(capsys, "represent", str(path), "--verify", "all")
        assert code == 0 and "pass: true" in out.splitlines()
        assert (f"clopen_{status}_characterization: ok" if status else
                "clopen_characterization: not applicable") in out.splitlines()
        assert [s.id for s in record.suites] == ["DBA23"] and record.classification is None
    models = [(name, alg) for name, alg in builtin_fixtures()]
    models += [(str(c), protoconcept_algebra(c).algebra) for c in all_contexts(2, 2)]
    # the Boolean parts checked so far are kept, and boolean2 has the tables
    # of one: the refuter starts from an empty store
    monkeypatch.setattr(algebra, "_FACTS", algebra._LRU(fresh_records.bound, fresh_records.floor))
    for system in ("L", "HL"):
        goal = logic.parse_hypersequent("x => y", system)
        assert logic.find_countermodel(goal, system, models) is not None
    for _, alg in models:
        record = algebra._facts_of(alg)
        assert [s.id for s in record.suites] == ["DBA23"] and record.classification is None


def test_construct_glued_sum_checks_no_suite_but_dba23(fresh_records, capsys, tmp_path):
    # dba, pure and trivial need DBA23 and the tables: after the command the
    # sum's record holds the DBA23 report only, and no classification; the
    # lines are those of classify
    for a in (1, 2, 4):
        (tmp_path / f"b{a}.dba").write_text(render_algebra(powerset_boolean(a).alg))
    for a in (1, 2, 4):
        for b in (1, 2, 4):
            alg = glued_sum(BooleanView(powerset_boolean(a).alg),
                            BooleanView(powerset_boolean(b).alg))
            record = algebra._facts_of(alg)
            assert not record.suites
            code, out = run(capsys, "construct", "glued-sum",
                            str(tmp_path / f"b{a}.dba"), str(tmp_path / f"b{b}.dba"))
            assert [s.id for s in record.suites] == ["DBA23"] and record.classification is None
            cl = algebra.classify(alg)
            assert (code, out) == (0, render_algebra(alg) + "---\n" + "\n".join([
                f"elements: {alg.n}", f"dba: {str(cl.is_dba).lower()}",
                f"pure: {str(cl.is_pure).lower()}",
                f"trivial: {str(cl.is_trivial).lower()}"]) + "\n")


def test_gen_glued_sum_rejects_an_element_identified_twice(files, capsys):
    code, out = run(capsys, "construct", "gen-glued-sum", files["b2"], files["b2"],
                    "--identify", "0=0,0=1")
    assert (code, out) == (2, "error: --identify pairs 0 with both 0 and 1\n")
    # a repeated identical pair is one pair
    once = run(capsys, "construct", "gen-glued-sum", files["b2"], files["b2"], "--identify", "0=0")
    twice = run(capsys, "construct", "gen-glued-sum", files["b2"], files["b2"],
                "--identify", "0=0, 0 = 0")
    assert twice == once and once[0] != 2


def test_prove_identity(files, capsys):
    code, out = run(capsys, "prove", "x => x")
    assert code == 0
    assert "proved: true" in out and "lines: 1" in out


def test_prove_not_found_is_still_exit_zero(files, capsys):
    code, out = run(capsys, "prove", "T => T & T", "--depth", "3")
    assert code == 0
    assert "proved: false" in out


def test_prove_past_the_depth_limit_is_exit_3(files, capsys, monkeypatch):
    # the depth is checked before any search: depth 24 took two minutes
    monkeypatch.setattr(cli, "search_proof", None)
    for depth in (MAX_PROOF_DEPTH + 1, 24):
        code, out = run(capsys, "prove", "x => y", "--depth", str(depth))
        assert code == 3
        assert out == (f"budget exceeded: --depth {depth} is more than the limit of "
                       f"{MAX_PROOF_DEPTH}\n")


def test_prove_at_the_depth_limit_is_accepted(monkeypatch, capsys):
    depths = []
    monkeypatch.setattr(cli, "search_proof",
                        lambda goal, system, depth, lemmas: depths.append(depth))
    code, out = run(capsys, "prove", "x => y", "--depth", str(MAX_PROOF_DEPTH))
    assert code == 0 and "proved: false" in out and depths == [MAX_PROOF_DEPTH]


def test_prove_multi_component_goal_in_L_is_exit_2(files, capsys):
    # L lines are single sequents, so no L proof can end in this goal
    code = main(["prove", "x & y => x ; y => y", "--system", "L"])
    assert code == 2
    assert capsys.readouterr().out == "error: system L lines must be single sequents\n"
    code, out = run(capsys, "prove", "x & y => x ; y => y", "--system", "HL")
    assert code == 0 and "proved: true" in out


def test_prove_with_cut_and_lemma_flag(files, capsys):
    code, out = run(capsys, "prove", "~~(x & y) => (x & y) & (x & y)", "--depth", "3")
    assert code == 0 and "proved: true" in out
    code2, out2 = run(capsys, "prove", "x & y => (x & y) & (x & y)",
                      "--depth", "4", "--lemma", "p & q => p")
    assert code2 == 0 and "proved: true" in out2


def test_checkproof_fixture_scripts(files, capsys, tmp_path):
    for name, script in fixture_proofs():
        p = tmp_path / f"{name}.proof"
        p.write_text(render_script(script))
        code, out = run(capsys, "checkproof", str(p))
        assert code == 0, (name, out)
        assert "valid: true" in out


def test_checkproof_invalid_script(files, capsys, tmp_path):
    p = tmp_path / "bad.proof"
    p.write_text("system: L\n1: x => y  id-axiom\n")
    code, out = run(capsys, "checkproof", str(p))
    assert code == 1
    assert "first_bad_line: 1" in out


def test_refute_reports_chain3(files, capsys):
    code, out = run(capsys, "refute", "T => T & T")
    assert code == 0
    assert "countermodel: found" in out and "model: chain3" in out


def test_refute_none_for_identity(files, capsys):
    code, out = run(capsys, "refute", "x => x")
    assert code == 0
    assert "countermodel: none" in out


@pytest.mark.parametrize("shape", ["0x1", "-1x2", "2x0"])
def test_refute_over_an_empty_context_range_is_exit_2(files, capsys, shape):
    # an empty range would check no model and report "countermodel: none"
    code, out = run(capsys, "refute", "T => T & T", "--models", f"contexts:{shape}")
    assert code == 2
    assert out == f"error: --models contexts:<GxM> needs G, M >= 1: 'contexts:{shape}'\n"


def _cell_limit(spec):
    return f"--models {spec} gives more table cells than the limit of {MAX_MODEL_CELLS}"


def _within_cell_budget(g, m):
    """Whether the protoconcept algebras of the contexts up to GxM hold at
    most MAX_MODEL_CELLS table cells in all, counted from ``enumerate_pairs``
    and stopped past the limit."""
    cells = 0
    for ng in range(1, g + 1):
        for nm in range(1, m + 1):
            for ctx in all_contexts(ng, nm):
                cells += len(enumerate_pairs(ctx, "protoconcept")) ** 2
                if cells > MAX_MODEL_CELLS:
                    return False
    return True


@pytest.mark.parametrize("shape", [
    "20000x1", "1x20000", "99999999999999999999x1",
    "99999999999999999999x99999999999999999999", "9" * 4000 + "x2",
    "4x4", "2x6", "6x2", "1x8", "8x1", "1x10", "10x1", "1x11",
])
def test_refute_over_a_huge_context_shape_is_exit_3(fresh_families, files, capsys, shape):
    # the cells are counted in family order, and the count stops past the
    # limit: no shape is too large to refuse, and no table is built
    t0 = time.perf_counter()
    with mock.patch.object(models, "protoconcept_algebra") as build:
        code, out = run(capsys, "refute", "x => x", "--models", f"contexts:{shape}")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (3, f"budget exceeded: {_cell_limit(f'contexts:{shape}')}\n")
    assert build.call_count == 0 and not fresh_families.entries


@pytest.mark.parametrize("g, m", sorted({shape for g, m in [
    *((1, k) for k in range(1, 12)), (2, 5), (2, 6), (3, 3), (3, 4), (4, 4),
] for shape in ((g, m), (m, g))}))
def test_a_context_shape_is_accepted_exactly_within_the_cell_budget(fresh_families, g, m):
    with mock.patch.object(models, "protoconcept_algebra") as build:
        try:
            family = models.model_set(f"contexts:{g}x{m}")
        except BudgetError as exc:
            assert str(exc) == _cell_limit(f"contexts:{g}x{m}")
            family = None
    assert (family is not None) == _within_cell_budget(g, m)
    assert build.call_count == 0  # the family is built as it is read
    if family is not None:
        kept, charge = fresh_families.entries[("contexts", g, m)]
        assert kept is family and charge <= MAX_MODEL_CELLS


def test_a_kept_family_counts_its_cells_once_outside_the_lock(fresh_families, monkeypatch):
    counted = []

    def pairs(ctx, kind):
        assert not fresh_families.lock.locked()  # other specs are not kept waiting
        counted.append(ctx)
        return generated(ctx, kind)

    generated = models._generated_pairs
    monkeypatch.setattr(models, "_generated_pairs", pairs)
    family = models.model_set("contexts:2x2")
    assert len(counted) == 26
    assert models.model_set("contexts:2X2") is family and len(counted) == 26
    monkeypatch.setattr(models, "_generated_pairs", generated)
    assert models._context_cells("contexts:2x2", 2, 2) == sum(
        len(enumerate_pairs(c, "protoconcept")) ** 2
        for g, m in ((1, 1), (1, 2), (2, 1), (2, 2)) for c in all_contexts(g, m))
    # 1,180 cells, charged the floor
    assert fresh_families.entries[("contexts", 2, 2)] == (family, fresh_families.floor)


def test_refute_over_the_contexts_up_to_3x4(fresh_families, files, capsys):
    # 5,050 contexts and 2.93M table cells: within the budget, and the goal
    # is refuted in the first block
    with mock.patch.object(models, "protoconcept_algebra",
                           wraps=models.protoconcept_algebra) as build:
        code, out = run(capsys, "refute", "T => T & T", "--models", "contexts:3x4")
    assert 0 < build.call_count <= logic._BLOCK
    assert code == 0
    assert out.endswith("---\ncountermodel: found\nmodel: context-1\nelements: 4\n"
                        "assignment: (no variables)\n")


def test_refute_over_the_contexts_up_to_3x3(files, capsys):
    code, out = run(capsys, "refute", "T => T & T", "--models", "contexts:3x3")
    assert code == 0
    assert out.endswith("---\ncountermodel: found\nmodel: context-1\nelements: 4\n"
                        "assignment: (no variables)\n")
    assert run(capsys, "refute", "x => x", "--models", "contexts:3x3") == (
        0, "goal: x => x\nsemantics: hypersequent holds when some component holds, "
           "for every assignment\n---\ncountermodel: none\n")


def test_refute_over_contexts_builds_only_the_blocks_it_reads(fresh_families, files, capsys):
    # the refuter reads logic._BLOCK models at a time: a goal refuted in the
    # first block builds no context algebra past it, and reports as before
    with mock.patch.object(models, "protoconcept_algebra",
                           wraps=models.protoconcept_algebra) as build:
        code, out = run(capsys, "refute", "T => T & T", "--models", "contexts:3x3")
    assert 0 < build.call_count <= logic._BLOCK
    assert code == 0
    assert out.endswith("---\ncountermodel: found\nmodel: context-1\nelements: 4\n"
                        "assignment: (no variables)\n")


def test_search_size1(files, capsys):
    code, out = run(capsys, "search", "--size", "1", "--require", "dba")
    assert code == 0
    assert "models: 1" in out and "complete: true" in out


def test_search_budget_exit3(files, capsys):
    code, out = run(capsys, "search", "--size", "2", "--max-candidates", "3")
    assert code == 3
    assert "complete: false" in out


def test_search_past_the_size_limit_is_exit_3(files, capsys):
    code, out = run(capsys, "search", "--size", str(MAX_SEARCH_SIZE + 1),
                    "--require", "dba", "--limit", "1")
    assert code == 3
    assert out == (f"budget exceeded: universe size {MAX_SEARCH_SIZE + 1} "
                   f"is over the search limit of {MAX_SEARCH_SIZE}\n")


def test_search_of_a_size_past_any_index_is_exit_3(files, capsys):
    # 2n + 2n**2 slots do not fit an index: the size is refused first
    size = 10 ** 20
    code, out = run(capsys, "search", "--size", str(size))
    assert (code, out) == (3, f"budget exceeded: universe size {size} "
                              f"is over the search limit of {MAX_SEARCH_SIZE}\n")


@pytest.mark.parametrize("size", [MAX_MODEL_SEARCH_SIZE + 1, 9, MAX_SEARCH_SIZE + 1])
def test_refute_search_past_its_model_limit_is_exit_3(fresh_families, files, capsys, monkeypatch,
                                                      size):
    # the size is checked before any search: size 9 used to run for minutes
    monkeypatch.setattr(models, "iter_algebras", None)
    code, out = run(capsys, "refute", "x => y", "--models", f"search:{size}")
    assert code == 3
    assert out == (f"budget exceeded: --models search:{size} searches models of size "
                   f"{size}, more than the limit of {MAX_MODEL_SEARCH_SIZE}\n")


def test_refute_search_at_its_model_limit_is_accepted(fresh_families, monkeypatch):
    sizes = []
    monkeypatch.setattr(models, "iter_algebras", lambda spec: sizes.append(spec.size) or iter(()))
    assert list(models.model_set(f"search:{MAX_MODEL_SEARCH_SIZE}")) == []
    assert sizes == [MAX_MODEL_SEARCH_SIZE]


@pytest.mark.parametrize("size", [0, -1])
def test_refute_search_of_no_elements_is_a_usage_error(fresh_families, capsys, monkeypatch, size):
    # the spec is checked when the stream is made, before any search
    def never(n):
        raise AssertionError("the partial tables were built")

    monkeypatch.setattr(search, "_Partial", never)
    code, out = run(capsys, "refute", "x => y", "--models", f"search:{size}")
    assert (code, out) == (2, "error: universe size must be >= 1\n")


def test_refute_search_reads_the_models_lazily(fresh_families, capsys, monkeypatch):
    # model-23 is in the first block of 64 models, so the search stops there
    read = []

    def counted(spec):
        for alg in search.iter_algebras(spec):
            read.append(alg)
            yield alg

    monkeypatch.setattr(models, "iter_algebras", counted)
    code, out = run(capsys, "refute", "x => x & y", "--models", f"search:{MAX_MODEL_SEARCH_SIZE}")
    assert code == 0
    assert "model: model-23\n" in out
    assert len(read) == logic._BLOCK == 64


_REFUTE_HEAD = ("semantics: hypersequent holds when some component holds, "
                "for every assignment\n---\n")


def _random_side(rng, atoms, size):
    """A formula over atoms with exactly size connectives."""
    if size == 0:
        return rng.choice(atoms)
    op = rng.choice("~!&|")
    if op in "~!":
        return op + _random_side(rng, atoms, size - 1)
    k = rng.randrange(size)
    return f"({_random_side(rng, atoms, k)} {op} {_random_side(rng, atoms, size - 1 - k)})"


def _random_goals(seed, count):
    """(system, goal text) pairs: L sequents over x, y and HL hypersequents of
    one or two components over object and property variables."""
    rng = random.Random(seed)
    goals = []
    for k in range(count):
        system = "HL" if k % 2 else "L"
        atoms = ("x", "y", "T", "F") if system == "L" else ("x", "X", "T", "F")
        goals.append((system, " ; ".join(
            f"{_random_side(rng, atoms, rng.randrange(3))} => "
            f"{_random_side(rng, atoms, rng.randrange(3))}"
            for _ in range(1 if system == "L" else rng.randrange(1, 3)))))
    return goals


def _fresh_models(spec):
    """The models of ``--models spec``, built afresh into a list, named as there."""
    if spec == "fixtures":
        return builtin_fixtures()
    kind, shape = spec.split(":")
    if kind == "search":
        models = search.iter_algebras(search.SearchSpec(size=int(shape), require="DBA23"))
        return [(f"model-{i}", alg) for i, alg in enumerate(models)]
    g, m = map(int, shape.split("x"))
    contexts = [c for ng in range(1, g + 1) for nm in range(1, m + 1)
                for c in all_contexts(ng, nm)]
    return [(f"context-{i}", protoconcept_algebra(c).algebra) for i, c in enumerate(contexts)]


def _refute_answer(system, goal, models):
    """``refute``'s exit code and output, from ``find_countermodel`` on models."""
    h = logic.parse_hypersequent(goal, system)
    found = logic.find_countermodel(h, system, models)
    if found is None:
        return 0, f"goal: {h}\n{_REFUTE_HEAD}countermodel: none\n"
    name, alg, env = found
    return 0, (f"goal: {h}\n{_REFUTE_HEAD}countermodel: found\nmodel: {name}\n"
               f"elements: {alg.n}\nassignment: {cli._witness_text(env, alg.names)}\n")


def test_kept_families_answer_as_freshly_built_lists(fresh_families, capsys, monkeypatch):
    # a goal reads the family as the goals before it left it; the answers
    # equal those on a cleared cache and those on a freshly built list
    cases = [(spec, _random_goals(seed, 16))
             for seed, spec in enumerate(("fixtures", "contexts:2x2", "search:3"), 1)]
    cases.append(("contexts:3x3", _random_goals(4, 4) + [("L", "T => T & T"),
                                                          ("HL", "x | X => X ; X => x")]))
    verdicts = set()
    for spec, goals in cases:
        fresh = _fresh_models(spec)
        want = [_refute_answer(system, goal, fresh) for system, goal in goals]
        argvs = [("refute", goal, "--system", system, "--models", spec) for system, goal in goals]
        kept = [run(capsys, *argv) for argv in argvs]
        again = [run(capsys, *argv) for argv in argvs]
        cleared = []
        for argv in argvs:  # each on an empty store
            empty = algebra._LRU(fresh_families.bound, fresh_families.floor)
            monkeypatch.setattr(models, "_FAMILIES", empty)
            cleared.append(run(capsys, *argv))
        assert kept == again == cleared == want, spec
        verdicts.update((spec, "countermodel: none" in out) for _, out in want)
    assert len(verdicts) == 2 * len(cases)  # each family refutes some goals and not others


def test_a_kept_family_builds_each_model_once(fresh_families, capsys):
    # blocks of logic._BLOCK models, each built at the first goal that reads it
    with mock.patch.object(models, "protoconcept_algebra",
                           wraps=models.protoconcept_algebra) as build:
        code, out = run(capsys, "refute", "T => T & T", "--models", "contexts:3x3")
        assert code == 0 and "model: context-1\n" in out
        assert 0 < build.call_count <= logic._BLOCK
        code, out = run(capsys, "refute", "x => x", "--models", "contexts:3x3")
        assert code == 0 and "countermodel: none\n" in out
        assert build.call_count == 682
        assert run(capsys, "refute", "x => x", "--system", "HL",
                   "--models", "contexts:3X3")[1].endswith("countermodel: none\n")
        assert build.call_count == 682
    assert list(fresh_families.entries) == [("contexts", 3, 3)]


def test_alternating_systems_build_each_blocks_stack_once(fresh_families, capsys, monkeypatch):
    # L admits 11 blocks of the 682 models of contexts:3x3 and HL 10: six
    # alternating goals without a countermodel read every block, and each
    # block's stack is built at its first read only, 21 in all
    built = []

    def stack(**arrays):
        built.append(arrays["offset"].size)
        return logic_stack(**arrays)

    logic_stack = logic._Stack
    monkeypatch.setattr(logic, "_Stack", stack)
    for _ in range(3):
        for system, goal in (("L", "x => x"), ("HL", "x & X => X & x")):
            out = run(capsys, "refute", goal, "--system", system, "--models", "contexts:3x3")[1]
            assert out.endswith("countermodel: none\n")
    assert len(built) == 21


def test_a_family_whose_build_raised_is_dropped(fresh_families, capsys, monkeypatch):
    built = []

    def flaky(ctx):
        if len(built) == 100:
            raise BudgetError("completion tables too large")
        built.append(ctx)
        return protoconcept_algebra(ctx)

    monkeypatch.setattr(models, "protoconcept_algebra", flaky)
    for _ in range(2):  # the first call and the next one, each from the start
        built.clear()
        assert run(capsys, "refute", "x => x", "--models", "contexts:3x3") == (
            3, "budget exceeded: completion tables too large\n")
        assert len(built) == 100 and not fresh_families.entries
    monkeypatch.setattr(models, "protoconcept_algebra", protoconcept_algebra)
    assert run(capsys, "refute", "x => x", "--models", "contexts:3x3") == _refute_answer(
        "L", "x => x", _fresh_models("contexts:3x3"))


def test_every_reader_of_a_family_whose_build_raised_gets_the_error():
    def entries():
        yield "a", boolean2()
        raise BudgetError("stop")

    family = models._Family("key", entries())
    first, second = iter(family), iter(family)
    assert next(first)[0] == next(second)[0] == "a"
    for reader in (first, second, iter(family)):
        with pytest.raises(BudgetError, match="stop"):
            list(reader)


@pytest.mark.parametrize("spec, code", [
    ("contexts:2y2", 2), ("contexts:0x1", 2), ("contexts:4x4", 3), ("contexts:99x99", 3),
    (f"search:{MAX_MODEL_SEARCH_SIZE + 1}", 3), ("search:three", 2), ("search:0", 2),
    ("nope", 2),
])
def test_a_bad_spec_gives_the_same_answer_on_every_call(fresh_families, capsys, spec, code):
    answers = [run(capsys, "refute", "x => x", "--models", spec) for _ in range(3)]
    assert answers[0][0] == code and answers[0][1].count("\n") == 1
    assert answers == [answers[0]] * 3 and not fresh_families.entries


def test_families_kept_are_few_and_small(fresh_families, capsys):
    store = fresh_families
    specs = ["fixtures", "contexts:1x1", "contexts:2x2", "search:1", "search:2", "search:3"]
    keys = ["fixtures", ("contexts", 1, 1), ("contexts", 2, 2),
            ("search", 1), ("search", 2), ("search", 3)]
    most = store.bound // store.floor  # each small family is charged the floor
    assert most == 4 and len(specs) > most
    for spec in specs:
        assert run(capsys, "refute", "x => x", "--models", spec)[0] == 0
    assert list(store.entries) == keys[-most:]  # the least recently used go
    kept = store.entries[keys[-most]][0]
    assert run(capsys, "refute", "x => x", "--models", specs[-most])[0] == 0
    assert list(store.entries)[-1] == keys[-most]
    assert store.entries[keys[-most]][0] is kept
    # the 2x5 family holds 1.53M table cells, within the budget: it is kept
    assert isinstance(models.model_set("contexts:2x5"), models._Family)
    assert ("contexts", 2, 5) in store.entries
    assert isinstance(models.model_set("contexts:3x3"), models._Family)
    # with 3x4 (2.93M) the kept families would pass the budget: the least
    # recently used go until the rest fit
    models.model_set("contexts:3x4")
    assert list(store.entries) == [("contexts", 3, 3), ("contexts", 3, 4)]
    assert store.cells == sum(charge for _, charge in store.entries.values()) <= MAX_MODEL_CELLS


def test_the_family_store_is_bounded_by_the_model_cell_budget():
    store = models._FAMILIES
    assert (store.bound, store.floor) == (MAX_MODEL_CELLS, MAX_MODEL_CELLS // 4)


def test_a_search_family_is_charged_the_floor_before_any_model_is_built(fresh_families,
                                                                        monkeypatch):
    def never(n):
        raise AssertionError("the partial tables were built")

    monkeypatch.setattr(search, "_Partial", never)
    family = models.model_set(f"search:{MAX_MODEL_SEARCH_SIZE}")  # 3,845 models, none read
    assert fresh_families.entries == {("search", MAX_MODEL_SEARCH_SIZE):
                                      (family, fresh_families.floor)}


@pytest.mark.parametrize("specs, kept", [
    # 2**20 + 2**20 + 2.93M cells pass the budget: fixtures goes
    (["fixtures", "contexts:2x2", "contexts:3x4"], [("contexts", 2, 2), ("contexts", 3, 4)]),
    (["contexts:3x3", "contexts:3x4"], [("contexts", 3, 3), ("contexts", 3, 4)]),
    (["fixtures", "contexts:1x1", "contexts:2x2", "search:1", "search:2"],
     [("contexts", 1, 1), ("contexts", 2, 2), ("search", 1), ("search", 2)]),
], ids=["a-large-family-evicts-small-ones", "two-large-families", "four-small-families"])
def test_a_family_is_charged_its_cells_but_at_least_the_floor(fresh_families, monkeypatch,
                                                              specs, kept):
    monkeypatch.setattr(models, "protoconcept_algebra", None)  # nothing is built
    monkeypatch.setattr(search, "_Partial", None)
    for spec in specs:
        models.model_set(spec)
    store = fresh_families
    assert list(store.entries) == kept
    assert all(charge >= store.floor for _, charge in store.entries.values())
    assert store.cells == sum(charge for _, charge in store.entries.values()) <= store.bound


def test_threads_refuting_against_one_family_agree(fresh_families):
    # more threads than cores, switching often, all building one family
    goals = [("L", "T => T & T"), ("L", "x => x"), ("HL", "x & X => X & x")]
    args = [cli._parser().parse_args(["refute", goal, "--system", system,
                                      "--models", "contexts:3x3"]) for system, goal in goals]
    answers = {}

    def work(k):
        answers[k] = [cli.cmd_refute(a) for a in args[k % 2:] + args[:k % 2]]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    fresh = _fresh_models("contexts:3x3")
    want = [_refute_answer(system, goal, fresh) for system, goal in goals]
    assert [answers[k] for k in range(4)] == [want, want[1:] + want[:1]] * 2
    # no entry built twice or lost
    family = fresh_families.get(("contexts", 3, 3))
    assert [name for name, _ in family] == [name for name, _ in fresh]


def test_search_reproduces_independence(files, capsys):
    code, out = run(capsys, "search", "--size", "2", "--require", "dcore",
                    "--fail", "5a,5b", "--limit", "1")
    assert "models: 1" in out
    assert "meet:" in out  # a model was emitted as .dba text


def test_output_deterministic(files, capsys):
    a = run(capsys, "classify", files["chain3"])
    b = run(capsys, "classify", files["chain3"])
    assert a == b
    c = run(capsys, "represent", files["chain3"])
    d = run(capsys, "represent", files["chain3"])
    assert c == d


def test_bad_goal_parse_is_exit_2(files, capsys):
    code, out = run(capsys, "prove", "x &")
    assert code == 2


def test_prove_nesting_at_the_limit(files, capsys):
    deep = "~" * MAX_DEPTH + "x"
    code, out = run(capsys, "prove", f"{deep} => {deep}")
    assert code == 0 and "proved: true" in out
    code, out = run(capsys, "prove", "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH + " => x")
    assert code == 0 and "proved: true" in out


@pytest.mark.parametrize("goal", [
    "~" * (MAX_DEPTH + 1) + "x => x",
    "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1) + " => x",
    "x => " + " & ".join(["x"] * (MAX_DEPTH + 2)),
    "~" * 3000 + "x => x",
    "(" * 3000 + "x" + ")" * 3000 + " => x",
])
def test_prove_nesting_past_the_limit_is_exit_2(files, capsys, goal):
    code, out = run(capsys, "prove", goal)
    assert code == 2


def test_the_reused_parser_answers_as_a_fresh_one(files, capsys, monkeypatch):
    # main builds its parser once; parsing must leave nothing behind in it
    argvs = [
        ["check", "{cex}", "--suite", "dcore"],
        ["classify", "{chain3}"],
        ["check", "{b2}", "--suite", "nope"],
        ["prove", "x", "--depth", "0"],
        ["refute", "T => T & T"],
        ["--help"],
        ["represent", "--help"],
        ["prove", "x => x", "--lemma", "x => x"],
        ["prove", "x => x"],
        [],
        ["check", "{cex}", "--suite", "dcore"],
    ]

    def answers():
        out = []
        for argv in argvs:
            code = main([arg.format(**files) for arg in argv])
            out.append((code, *capsys.readouterr()))
        return out

    reused = answers()
    again = answers()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = answers()
    assert [code for code, _, _ in fresh] == [1, 0, 2, 2, 0, 0, 0, 0, 0, 2, 1]
    assert reused == again == fresh
    assert cli.build_parser() is not cli.build_parser()


def test_an_emitted_context_without_attributes_reads_back(capsys, tmp_path):
    # the standard context of the glued sum of the 2- and 1-element Boolean
    # algebras has one object and no attribute
    from dbakit.constructions import glued_sum, powerset_boolean
    dba, cxt = tmp_path / "g.dba", tmp_path / "g.cxt"
    dba.write_text(render_algebra(glued_sum(powerset_boolean(1), powerset_boolean(0))))
    code, _ = run(capsys, "represent", str(dba), "--emit-context", str(cxt))
    assert code == 0
    assert cxt.read_text() == "objects: F0\nattributes: \n\n"
    code, out = run(capsys, "protoconcepts", str(cxt))
    assert code == 0
    assert "count: 2" in out


@pytest.mark.parametrize("argv", [["refute", "É => x"], ["prove", "aé => x"],
                                  ["refute", "x => éa", "--system", "HL"]])
def test_a_non_ascii_letter_in_a_goal_is_exit_2(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2 and out.startswith("error: unknown token")


# short texts over the grammar's characters, blanks and line breaks outside
# ASCII, and any other character but a lone surrogate, alone or after a
# well-formed goal or script
_goal_texts = st.tuples(
    st.sampled_from(["", "x & y => y", "x => x ; Y => Y", "system: L\n1: x => x  id\n"]),
    st.text(st.sampled_from(list("xyXY_1TF&|~!(),;=>#:- \t\r\n\x0b\u00a0\u2028é"))
            | st.characters(blacklist_categories=("Cs",)), max_size=16),
).map("".join)


@settings(max_examples=100, deadline=None)
@given(_goal_texts)
def test_malformed_goals_and_scripts_never_end_in_a_traceback(tmp_path_factory, text):
    goal = ["--", text] if text.startswith("-") else [text]
    script = tmp_path_factory.mktemp("script") / "goal.proof"
    script.write_text(text, encoding="utf-8")
    for argv in (["refute", *goal], ["prove", "--depth", "2", *goal],
                 ["checkproof", str(script)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, out.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()
