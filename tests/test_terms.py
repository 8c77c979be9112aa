"""Term syntax: parsing, macro expansion, rendering, tokens, interning."""

import copy
import dataclasses
import gc
import pickle
import sys
import threading
import tracemalloc
import weakref

import pytest
from hypothesis import given, strategies as st

from dbakit import terms
from dbakit.errors import ParseError
from dbakit.terms import (
    BOT, GENERIC, MAX_DEPTH, OBJECT, PROPERTY, TOP, AxiomSuite, Equation, Join, Meet, Neg,
    Opp, Var, fold, parse_term, postorder, render, source, subterms, variables, vee, wedge,
)


def test_parse_negated_meet_of_negations():
    assert parse_term("~(~x & ~y)") == Neg(Meet(Neg(Var("x")), Neg(Var("y"))))


def test_vee_macro_expands():
    assert parse_term("vee(x, y)") == Neg(Meet(Neg(Var("x")), Neg(Var("y"))))
    assert parse_term("vee(x, y)") == vee(Var("x"), Var("y"))


def test_wedge_macro_expands():
    assert parse_term("wedge(x, y)") == Opp(Join(Opp(Var("x")), Opp(Var("y"))))
    assert parse_term("wedge(x, y)") == wedge(Var("x"), Var("y"))


def test_precedence_unary_meet_join():
    assert parse_term("x & (y | z)") == Meet(Var("x"), Join(Var("y"), Var("z")))
    # without parens: | binds loosest, & tighter, unary tightest
    assert parse_term("x & y | z") == Join(Meet(Var("x"), Var("y")), Var("z"))
    assert parse_term("~x & y") == Meet(Neg(Var("x")), Var("y"))
    assert parse_term("!x | y") == Join(Opp(Var("x")), Var("y"))


def test_left_associativity():
    assert parse_term("x & y & z") == Meet(Meet(Var("x"), Var("y")), Var("z"))
    assert parse_term("x | y | z") == Join(Join(Var("x"), Var("y")), Var("z"))


def test_constants():
    assert parse_term("T") == TOP
    assert parse_term("F") == BOT
    assert parse_term("T & F") == Meet(TOP, BOT)


def test_unexpected_end_of_input():
    with pytest.raises(ParseError):
        parse_term("x &")


def test_unknown_token_has_position():
    with pytest.raises(ParseError) as exc:
        parse_term("x @ y")
    assert exc.value.line == 1
    assert exc.value.column == 3


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_term("x y")


def test_sorted_variables():
    t = parse_term("p & Q", sorted_vars=True)
    assert t == Meet(Var("p", "object"), Var("Q", "property"))
    t2 = parse_term("p & Q")
    assert t2 == Meet(Var("p"), Var("Q"))


def test_variables_sorted_unique():
    assert variables(parse_term("y & x & y | ~z")) == ("x", "y", "z")


def test_render_minimal_parens():
    assert render(parse_term("x & (y | z)")) == "x & (y | z)"
    assert render(parse_term("(x & y) | z")) == "x & y | z"
    assert render(parse_term("~(x & y)")) == "~(x & y)"
    assert render(parse_term("~x & y")) == "~x & y"


_terms = st.deferred(lambda: st.one_of(
    st.sampled_from([Var("x"), Var("y"), Var("z"), TOP, BOT]),
    st.builds(Neg, _terms),
    st.builds(Opp, _terms),
    st.builds(Meet, _terms, _terms),
    st.builds(Join, _terms, _terms),
))


@given(_terms)
def test_parse_render_round_trip(t):
    assert parse_term(render(t)) == t


# --- interning ---------------------------------------------------------------

def test_equal_terms_are_one_node():
    assert parse_term("x & y") is Meet(Var("x"), Var("y"))
    assert parse_term("vee(x, y)") is vee(Var("x"), Var("y"))
    assert Var("x", OBJECT) is not Var("x")
    assert Var("x", OBJECT) != Var("x")


def test_pickle_and_copy_return_the_interned_node():
    t = parse_term("~(x & y) | !T")
    assert pickle.loads(pickle.dumps(t)) is t
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert all(u is t for u in copy.deepcopy([t, {"k": t}])[1].values())


def test_equations_and_suites_hash_by_value():
    e = Equation("e", parse_term("x & y"), parse_term("y & x"))
    twin = Equation("e", parse_term("x & y"), parse_term("y & x"))
    suite = AxiomSuite("S", (e,))
    # the hashes of the generated dataclass methods, computed at construction
    assert hash(e) == hash(twin) == hash(("e", e.lhs, e.rhs))
    assert hash(suite) == hash(AxiomSuite("S", (twin,))) == hash(("S", (e,)))
    for a in (e, suite):
        for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert copied == a and hash(copied) == hash(a)
    assert Equation("f", e.lhs, e.rhs) != e and AxiomSuite("T", (e,)) != suite
    assert [f.name for f in dataclasses.fields(e)] == ["id", "lhs", "rhs"]


def test_fields_cannot_be_assigned():
    t = Meet(Var("x"), TOP)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.left = Var("y")
    with pytest.raises(AttributeError):
        del t.right
    with pytest.raises(AttributeError):
        Var("x").name = "y"
    assert t.left is Var("x")


def test_repr_is_dataclass_style():
    assert repr(Meet(Var("x"), Neg(BOT))) == (
        "Meet(left=Var(name='x', sort='generic'), right=Neg(arg=Const(which='bot')))")
    assert repr(Var("p", OBJECT)) == "Var(name='p', sort='object')"


def test_unreferenced_terms_leave_the_table():
    gc.collect()
    before = len(terms._TABLE)
    t = Join(Var("gc_only_a"), Opp(Var("gc_only_b")))
    assert (Var, "gc_only_a", GENERIC) in terms._TABLE
    del t
    gc.collect()
    assert (Var, "gc_only_a", GENERIC) not in terms._TABLE
    assert (Var, "gc_only_b", GENERIC) not in terms._TABLE
    assert len(terms._TABLE) <= before


def test_threads_intern_one_node_per_term():
    # fresh terms built at once from more threads than cores, with frequent
    # thread switches: a lost race would leave two nodes for one term
    texts = [f"~(t{i} & u{i}) | !t{i}" for i in range(1000)]
    results = [None] * 4

    def build(k):
        results[k] = [parse_term(text) for text in texts]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(k,)) for k in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for built in results[1:]:
        assert all(a is b for a, b in zip(results[0], built))


def test_variables_and_subterms_are_cached(monkeypatch):
    t = parse_term("(y & x) | ~(x & z)")
    assert variables(t) == ("x", "y", "z")
    assert variables(t) is variables(t)
    subs = subterms(t)
    # the walk is cached without t itself, so each call builds a new tuple
    # around it but never walks again
    monkeypatch.setattr(terms, "_walk", None)
    assert subterms(t) == subs
    monkeypatch.undo()
    assert [render(u) for u in subs] == [
        "y & x | ~(x & z)", "y & x", "y", "x", "~(x & z)", "x & z", "z"]


def test_fold_visits_each_distinct_subterm_once_children_first():
    t = parse_term("~(x & y) | (x & y) & T")
    seen = []

    def node(text):
        seen.append(text)
        return text

    out = fold(t, node, "T", "F",
               lambda a: node(f"~{a}"), lambda a: node(f"!{a}"),
               lambda a, b: node(f"({a} & {b})"), lambda a, b: node(f"({a} | {b})"))
    assert out == "(~(x & y) | ((x & y) & T))"
    # the shared x & y is built once, after its children and before its parents
    assert seen == ["x", "y", "(x & y)", "~(x & y)", "((x & y) & T)", out]


def test_fold_drops_values_after_their_last_parent():
    # a 900-deep chain built in code: a string fold holds each subterm's text
    # only until its parent is folded, so its peak memory follows the output's
    # length rather than the sum of every prefix (about 1.6 MB for render)
    t = Var("x")
    for i in range(900):
        if i % 3 == 0:
            t = Join(t, Var("y"))
        elif i % 3 == 1:
            t = Neg(t)
        else:
            t = Meet(Var("z"), t)
    for show in (render, lambda u: source(u, str)):
        text = show(t)  # the walk is cached on t from here on
        tracemalloc.start()
        try:
            assert show(t) == text
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * len(text)


def test_source():
    t = parse_term("~(x & T) | !y")
    assert source(t, lambda name: name) == "J[G[M[x][TP]]][O[y]]"


def test_depth_is_cached_on_the_node():
    assert Var("x").depth == 0
    assert parse_term("~x & (y | T)").depth == 2
    assert parse_term("vee(x, y)").depth == 3


# --- nesting limit -------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "~" * MAX_DEPTH + "x",
    "!" * MAX_DEPTH + "x",
    "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
    " & ".join(["x"] * (MAX_DEPTH + 1)),
    " | ".join(["x"] * (MAX_DEPTH + 1)),
])
def test_nesting_at_the_limit_parses(text):
    assert parse_term(text).depth <= MAX_DEPTH


@pytest.mark.parametrize("text", [
    "~" * (MAX_DEPTH + 1) + "x",
    "!" * (MAX_DEPTH + 1) + "x",
    "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1),
    " & ".join(["x"] * (MAX_DEPTH + 2)),
    " | ".join(["x"] * (MAX_DEPTH + 2)),
    "~(" + " & ".join(["x"] * (MAX_DEPTH + 1)) + ")",
    "vee(" * MAX_DEPTH + "x" + ", x)" * MAX_DEPTH,
    "~" * 3000 + "x",
    "(" * 3000 + "x" + ")" * 3000,
])
def test_nesting_past_the_limit_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_term(text)



_CHILDREN = {Neg: ("arg",), Opp: ("arg",), Meet: ("left", "right"), Join: ("left", "right")}


def _reference_walk(t):
    """Every node of t in recursive pre-order, repeats included."""
    out = [t]
    for f in _CHILDREN.get(type(t), ()):
        out += _reference_walk(getattr(t, f))
    return out


def _reference_postorder(t, seen):
    """The nodes of t not in seen, each once, after its children, left first."""
    if t in seen:
        return []
    seen.add(t)
    out = []
    for f in _CHILDREN.get(type(t), ()):
        out += _reference_postorder(getattr(t, f), seen)
    return out + [t]


def _reference_depth(t):
    return max((1 + _reference_depth(getattr(t, f)) for f in _CHILDREN.get(type(t), ())),
               default=0)


@given(_terms)
def test_cached_walks_match_a_recursive_walk(t):
    nodes = _reference_walk(t)
    assert subterms(t) == tuple(dict.fromkeys(nodes))
    assert postorder(t) == tuple(_reference_postorder(t, set()))
    assert variables(t) == tuple(sorted({u.name for u in nodes if isinstance(u, Var)}))
    assert t.depth == _reference_depth(t)


def test_postorder_keeps_the_sorts_of_variables():
    t = parse_term("~(x & Y) | x", sorted_vars=True)
    assert postorder(t) == tuple(_reference_postorder(t, set()))
    assert [u.sort for u in postorder(t) if isinstance(u, Var)] == [OBJECT, PROPERTY]


def test_used_terms_are_freed_without_the_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        for build in (lambda: Meet(Var("c"), Neg(Var("d"))), lambda: Var("e")):
            t = build()
            render(t)
            subterms(t)
            postorder(t)
            ref = weakref.ref(t)
            del t
            assert ref() is None
    finally:
        gc.enable()
