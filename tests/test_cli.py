"""Command-line interface: exit codes, deterministic output, examples."""

import random

import pytest

from dbakit import cli
from dbakit.cli import MAX_EMIT_PAIRS, MAX_MODEL_CONTEXTS, main
from dbakit.fileformats import render_algebra, render_context
from dbakit.fca import MAX_COMPLETION_ENTRIES, FormalContext
from dbakit.fixtures import boolean2, cex_5ab, chain3, singleton
from dbakit.logic import fixture_proofs, render_script
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
    (["represent", "{chain3}", "--max-size", "0"], "--max-size", 1),
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


def test_represent_budget_exit(files, capsys, tmp_path):
    from dbakit.constructions import glued_sum, powerset_boolean
    big = glued_sum(powerset_boolean(4, max_atoms=5), powerset_boolean(3, max_atoms=5))
    p = tmp_path / "big.dba"
    p.write_text(render_algebra(big))
    code, out = run(capsys, "represent", str(p))
    assert code == 3
    # a raised budget reaches every check, translated continuity included
    code, out = run(capsys, "represent", str(p), "--max-size", "30")
    assert code == 0
    assert "translated_continuity: ok" in out
    assert "pass: true" in out


def test_prove_identity(files, capsys):
    code, out = run(capsys, "prove", "x => x")
    assert code == 0
    assert "proved: true" in out and "lines: 1" in out


def test_prove_not_found_is_still_exit_zero(files, capsys):
    code, out = run(capsys, "prove", "T => T & T", "--depth", "3")
    assert code == 0
    assert "proved: false" in out


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


@pytest.mark.parametrize("shape, count", [("4x4", 74954), ("3x4", 5050), ("2x6", 5586)])
def test_refute_over_too_many_contexts_is_exit_3(files, capsys, shape, count):
    # the count is checked before any context algebra is built
    code, out = run(capsys, "refute", "x => x", "--models", f"contexts:{shape}")
    assert code == 3
    assert out == (f"budget exceeded: --models contexts:{shape} gives {count} contexts, "
                   f"more than the limit of {MAX_MODEL_CONTEXTS}\n")


def test_refute_over_the_contexts_up_to_3x3(files, capsys):
    code, out = run(capsys, "refute", "T => T & T", "--models", "contexts:3x3")
    assert code == 0
    assert out.endswith("---\ncountermodel: found\nmodel: context-1\nelements: 4\n"
                        "assignment: (no variables)\n")
    assert run(capsys, "refute", "x => x", "--models", "contexts:3x3") == (
        0, "goal: x => x\nsemantics: hypersequent holds when some component holds, "
           "for every assignment\n---\ncountermodel: none\n")


def test_search_size1(files, capsys):
    code, out = run(capsys, "search", "--size", "1", "--require", "dba")
    assert code == 0
    assert "models: 1" in out and "complete: true" in out


def test_search_budget_exit3(files, capsys):
    code, out = run(capsys, "search", "--size", "2", "--max-candidates", "3")
    assert code == 3
    assert "complete: false" in out


@pytest.mark.parametrize("argv", [
    ("search", "--size", str(MAX_SEARCH_SIZE + 1), "--require", "dba", "--limit", "1"),
    ("refute", "x => y", "--models", f"search:{MAX_SEARCH_SIZE + 1}"),
])
def test_search_past_the_size_limit_is_exit_3(files, capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 3
    assert out == (f"budget exceeded: universe size {MAX_SEARCH_SIZE + 1} "
                   f"is over the search limit of {MAX_SEARCH_SIZE}\n")


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
