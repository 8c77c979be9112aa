"""Text formats: .dba and .cxt parsing, rendering, error paths."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dbakit.errors import ParseError
from dbakit.fca import FormalContext, all_contexts
from dbakit.fileformats import parse_algebra, parse_context, render_algebra, render_context
from dbakit.fixtures import builtin_fixtures
from dbakit.logic import fixture_proofs, parse_script, render_script

TWO_ELEMENT = """\
# the two-element algebra separating the double-negation axioms
elements: a b
meet:
a a
a b
join:
a b
b b
neg: a a
opp: b b
top: b
bot: a
"""


def test_parse_two_element_file():
    alg = parse_algebra(TWO_ELEMENT)
    b = alg.index("b")
    a = alg.index("a")
    assert alg._rows_m[b][b] == b
    assert alg._lneg[b] == a
    assert alg.top == b and alg.bot == a


def test_parse_singleton_file():
    alg = parse_algebra("elements: e\nmeet:\ne\njoin:\ne\nneg: e\nopp: e\ntop: e\nbot: e\n")
    assert alg.n == 1


def test_round_trip_on_fixtures():
    for name, alg in builtin_fixtures():
        text = render_algebra(alg)
        again = parse_algebra(text)
        assert render_algebra(again) == text, name
        assert again.signature() == alg.signature(), name


def test_malformed_row_length_names_the_row():
    bad = TWO_ELEMENT.replace("a b\nb b", "a b\nb b b")
    with pytest.raises(ParseError, match="row"):
        parse_algebra(bad)


def test_unknown_element_name():
    with pytest.raises(ParseError, match="unknown element"):
        parse_algebra(TWO_ELEMENT.replace("neg: a a", "neg: a zz"))


@pytest.mark.parametrize("old, new, line", [
    ("a a\na b\njoin", "a a\na zz\njoin", 5),  # the second meet row
    ("a a\na b\njoin", "zz a\na b\njoin", 4),  # the first token of the first row
    ("neg: a a", "neg: a zz", 9),
    ("top: b", "top: zz", 11),
])
def test_an_unknown_name_reports_its_line(old, new, line):
    with pytest.raises(ParseError) as err:
        parse_algebra(TWO_ELEMENT.replace(old, new))
    assert str(err.value) == f"unknown element name 'zz' (line {line}, column 1)"


def test_duplicate_section():
    with pytest.raises(ParseError, match="duplicate"):
        parse_algebra(TWO_ELEMENT + "top: b\n")


def test_missing_section():
    with pytest.raises(ParseError, match="missing"):
        parse_algebra("elements: a\nmeet:\na\njoin:\na\nneg: a\nopp: a\ntop: a\n")


def test_comments_and_blank_lines_ignored():
    text = "\n# header\nelements: a  # trailing\nmeet:\na\n\njoin:\na\nneg: a\nopp: a\ntop: a\nbot: a\n"
    assert parse_algebra(text).n == 1


def test_inline_and_whole_line_comments_keep_the_line_numbers():
    commented = "# header\n" + TWO_ELEMENT.replace("neg: a a", "neg: a a  # inline").replace(
        "top: b", "top: b#tight")
    assert render_algebra(parse_algebra(commented)) == render_algebra(parse_algebra(TWO_ELEMENT))
    with pytest.raises(ParseError) as err:
        parse_algebra(commented.replace("bot: a", "bot: zz # the last line"))
    assert str(err.value) == "unknown element name 'zz' (line 13, column 1)"
    ctx = parse_context("objects: g # one\n# none\nattributes: m#\nX # row\n")
    assert ctx.objects == ("g",) and ctx.attributes == ("m",) and ctx.incidence.tolist() == [[True]]
    with pytest.raises(ParseError, match=r"got '\?' \(line 4, column 1\)"):
        parse_context("objects: g\nattributes: m # c\n# c\n? # x\n")


CTX = """\
objects: g1 g2
attributes: m1 m2 m3
X.X
...
"""


def test_parse_context():
    ctx = parse_context(CTX)
    assert ctx.objects == ("g1", "g2")
    assert ctx.attributes == ("m1", "m2", "m3")
    assert ctx.incidence.tolist() == [[True, False, True], [False, False, False]]


def test_context_round_trip():
    ctx = parse_context(CTX)
    assert parse_context(render_context(ctx)).obj_rows == ctx.obj_rows


def test_context_row_count_checked():
    with pytest.raises(ParseError):
        parse_context("objects: g1 g2\nattributes: m1\nX\n")


def test_context_bad_cell():
    with pytest.raises(ParseError, match="'X' or '.'"):
        parse_context("objects: g\nattributes: m\n?\n")


def test_context_row_length_checked():
    with pytest.raises(ParseError):
        parse_context("objects: g\nattributes: m1 m2\nX\n")


def test_empty_object_side_context():
    ctx = parse_context("objects:\nattributes: m1 m2\n")
    assert ctx.n_objects == 0 and ctx.n_attributes == 2
    assert render_context(ctx) == "objects: \nattributes: m1 m2\n"
    assert isinstance(ctx, FormalContext)


def test_duplicate_context_names_are_parse_errors():
    with pytest.raises(ParseError, match=r"duplicate attribute name 'm' \(line 2"):
        parse_context("objects: g0 g1\nattributes: m m\n.X\n..\n")
    with pytest.raises(ParseError, match=r"duplicate object name 'g' \(line 2"):
        parse_context("# two g\nobjects: g h g\nattributes: m\nX\nX\nX\n")


# --- fuzzing: any text gives a result or a ParseError ---------------------------

_PARSERS = {"algebra": parse_algebra, "context": parse_context, "script": parse_script}
_SEEDS = {  # valid inputs for the mutations to start from
    "algebra": [TWO_ELEMENT] + [render_algebra(alg) for _, alg in builtin_fixtures()],
    "context": [CTX, "objects:\nattributes: m1 m2\n"]
    + [render_context(ctx) for ctx in list(all_contexts(2, 2))[::5]],
    "script": [render_script(script) for _, script in fixture_proofs()],
}


def _parse_or_parse_error(kind, text):
    try:
        _PARSERS[kind](text)
    except ParseError:
        pass


# text near the formats' own alphabet finds more than arbitrary unicode
_format_text = st.lists(
    st.sampled_from(list("abgmxyXTF.:#;=>&|~!()*,0123456789 \n\t'")
                    + ["elements:", "meet:\n", "join:\n", "neg:", "opp:", "top:", "bot:",
                       "objects:", "attributes:", "system: L\n", "system: HL\n",
                       "  axiom(", "  cut", "  meetR ", "=>"]),
    max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_PARSERS)), st.one_of(st.text(max_size=80), _format_text))
def test_parsers_reject_arbitrary_text_with_parse_error(kind, text):
    _parse_or_parse_error(kind, text)


@st.composite
def _mutated(draw):
    kind = draw(st.sampled_from(sorted(_PARSERS)))
    text = draw(st.sampled_from(_SEEDS[kind]))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        op = draw(st.sampled_from(["delete", "insert", "replace", "duplicate", "swap"]))
        lines = text.split("\n")
        if op == "delete":
            text = text[:i] + text[j:]
        elif op == "insert":
            text = text[:i] + draw(_format_text) + text[i:]
        elif op == "replace":
            text = text[:i] + draw(st.text(max_size=3)) + text[j:]
        elif op == "duplicate":
            k = draw(st.integers(0, len(lines) - 1))
            text = "\n".join(lines[:k + 1] + lines[k:])
        else:
            k = draw(st.integers(0, max(0, len(lines) - 2)))
            lines[k:k + 2] = lines[k:k + 2][::-1]
            text = "\n".join(lines)
    return kind, text


@settings(max_examples=400, deadline=None)
@given(_mutated())
def test_parsers_reject_mutated_inputs_with_parse_error(case):
    _parse_or_parse_error(*case)


def test_overlong_proof_line_index_is_a_parse_error():
    with pytest.raises(ParseError, match=r"line index has 5000 digits \(line 2"):
        parse_script("system: L\n" + "1" * 5000 + ": x => x  axiom(id)\n")


def test_fuzz_seeds_are_valid():
    for kind, texts in _SEEDS.items():
        for text in texts:
            _PARSERS[kind](text)


@pytest.mark.parametrize("objects, attributes", list(product(range(4), repeat=2)))
def test_every_context_up_to_3x3_round_trips(objects, attributes):
    # a context without attributes renders its rows as blank lines, which
    # the parser used to skip and then count as missing
    for ctx in all_contexts(objects, attributes):
        back = parse_context(render_context(ctx))
        assert (back.objects, back.attributes) == (ctx.objects, ctx.attributes)
        assert back.incidence.shape == ctx.incidence.shape
        assert back.incidence.tolist() == ctx.incidence.tolist()


def test_a_context_without_attributes_may_omit_its_rows():
    assert parse_context("objects: g1 g2\nattributes:\n").incidence.shape == (2, 0)
    with pytest.raises(ParseError, match="incidence row has length 1, expected 0"):
        parse_context("objects: g1\nattributes:\nX\n")
