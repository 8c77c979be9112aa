"""Text formats: .dba and .cxt parsing, rendering, error paths."""

import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dbakit import fileformats
from dbakit.algebra import FiniteAlgebra
from dbakit.errors import ParseError
from dbakit.fca import (
    FormalContext, all_contexts, oo_protoconcept_algebra, protoconcept_algebra,
)
from dbakit.fileformats import (
    _logical_lines, parse_algebra, parse_context, render_algebra, render_context,
)
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
    assert alg._tuples()[0][b][b] == b
    assert alg._tuples()[2][b] == a
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
def _mutated(draw, seeds=_SEEDS):
    kind = draw(st.sampled_from(sorted(seeds)))
    text = draw(st.sampled_from(seeds[kind]))
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


# --- the distinct-row parser against the per-cell one ---------------------------

def per_cell_parse_algebra(text):
    """Reference: the .dba parser that reads every table row, one Python int
    per cell, as ``fileformats.parse_algebra`` once did."""
    lines = list(_logical_lines(text))
    pos = 0
    sections: dict = {}

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise ParseError("unexpected end of file")
        item = lines[pos]
        pos += 1
        return item

    def header(line, lineno):
        if ":" not in line:
            raise ParseError(f"expected 'section: ...', got {line!r}", lineno, 1)
        key, rest = line.split(":", 1)
        return key.strip(), rest.strip()

    while pos < len(lines):
        lineno, line = take()
        key, rest = header(line, lineno)
        if key in sections:
            raise ParseError(f"duplicate section {key!r}", lineno, 1)
        if key == "elements":
            sections[key] = (lineno, rest.split())
        elif key in ("meet", "join"):
            if rest:
                raise ParseError(f"{key!r} rows must start on the following line", lineno, 1)
            if "elements" not in sections:
                raise ParseError(f"{key!r} section before 'elements'", lineno, 1)
            n = len(sections["elements"][1])
            rows = []
            for _ in range(n):
                rlineno, rline = take()
                rows.append((rlineno, rline.split()))
            sections[key] = (lineno, rows)
        elif key in ("neg", "opp"):
            sections[key] = (lineno, rest.split())
        elif key in ("top", "bot"):
            sections[key] = (lineno, rest.split())
        else:
            raise ParseError(f"unknown section {key!r}", lineno, 1)

    for required in ("elements", "meet", "join", "neg", "opp", "top", "bot"):
        if required not in sections:
            raise ParseError(f"missing section {required!r}")

    names = sections["elements"][1]
    if not names:
        raise ParseError("empty element list", sections["elements"][0], 1)
    index = {nm: i for i, nm in enumerate(names)}
    if len(index) != len(names):
        raise ParseError("duplicate element name", sections["elements"][0], 1)
    n = len(names)

    def resolve(nm, lineno):
        if nm not in index:
            raise ParseError(f"unknown element name {nm!r}", lineno, 1)
        return index[nm]

    def row(toks, lineno):
        try:
            return list(map(index.__getitem__, toks))
        except KeyError:  # name the first unknown token
            return [resolve(t, lineno) for t in toks]

    def table2(key):
        rows = []
        for rlineno, toks in sections[key][1]:
            if len(toks) != n:
                raise ParseError(
                    f"{key} row has {len(toks)} entries, expected {n}", rlineno, 1)
            rows.append(row(toks, rlineno))
        return rows

    def table1(key):
        lineno, toks = sections[key]
        if len(toks) != n:
            raise ParseError(f"{key} needs {n} entries, got {len(toks)}", lineno, 1)
        return row(toks, lineno)

    def const(key):
        lineno, toks = sections[key]
        if len(toks) != 1:
            raise ParseError(f"{key} needs exactly one element name", lineno, 1)
        return resolve(toks[0], lineno)

    return FiniteAlgebra(
        names, table2("meet"), table2("join"), table1("neg"), table1("opp"),
        const("top"), const("bot"),
    )


def _parse_outcome(parse, text):
    """(names, signature) of the parsed algebra, or the ParseError's text."""
    try:
        alg = parse(text)
    except ParseError as err:
        return str(err)
    return alg.names, alg.signature()


def _emitted_algebras():
    """Rendered pair algebras with repeated table rows: every 2x2 context's
    and one seeded context's of each CLI shape, 3x3 to 7x6."""
    rng = random.Random(30)
    ctxs = list(all_contexts(2, 2)) + [
        FormalContext([f"g{i}" for i in range(g)], [f"m{j}" for j in range(m)],
                      [[rng.random() < 0.5 for _ in range(m)] for _ in range(g)])
        for g, m in ((3, 3), (4, 4), (5, 4), (5, 5), (6, 5), (7, 6))]
    return [render_algebra(build(ctx).algebra)
            for ctx in ctxs for build in (protoconcept_algebra, oo_protoconcept_algebra)]


EMITTED = _emitted_algebras()


def test_parse_matches_the_per_cell_parser_on_fixtures_and_emitted_algebras():
    assert any(len(set(t.splitlines())) < len(t.splitlines()) for t in EMITTED)
    for text in _SEEDS["algebra"] + EMITTED:
        want = _parse_outcome(per_cell_parse_algebra, text)
        assert not isinstance(want, str)
        assert _parse_outcome(parse_algebra, text) == want
    for text in _SEEDS["algebra"][1:] + EMITTED:  # the rendered ones
        assert render_algebra(parse_algebra(text)) == text


@settings(max_examples=400, deadline=None)
@given(_mutated({"algebra": _SEEDS["algebra"] + EMITTED[:8]}))
def test_parse_matches_the_per_cell_parser_on_mutated_inputs(case):
    _, text = case
    assert _parse_outcome(parse_algebra, text) == _parse_outcome(per_cell_parse_algebra, text)


THREE = """\
elements: a b c
meet:
a a a
a b b
a b c
join:
a b c
b b c
c c c
neg: c b a
opp: c b a
top: c
bot: a
"""


REPEATED_ROW_CASES = [
    # an unknown name in a row that repeats later: the first occurrence fails
    ("a b b\na b c\njoin", "a zz c\na zz c\njoin",
     "unknown element name 'zz' (line 4, column 1)"),
    ("a b c\nb b c\nc c c", "zz b c\nb b c\nzz b c",
     "unknown element name 'zz' (line 7, column 1)"),
    # a wrong-length row after an earlier row with an unknown name
    ("a b b\na b c\njoin", "a zz b\na b\njoin",
     "unknown element name 'zz' (line 4, column 1)"),
    ("a a a\na b b\na b c", "a zz a\na b\na zz a",
     "unknown element name 'zz' (line 3, column 1)"),
    # a wrong-length row that repeats, after a repeated good row
    ("a b b\na b c\njoin", "a a a\na b\njoin",
     "meet row has 2 entries, expected 3 (line 5, column 1)"),
    ("b b c\nc c c", "a b\na b", "join row has 2 entries, expected 3 (line 8, column 1)"),
]


@pytest.mark.parametrize("old, new, error", REPEATED_ROW_CASES)
def test_repeated_rows_keep_the_first_parse_error(old, new, error):
    text = THREE.replace(old, new)
    assert text != THREE
    with pytest.raises(ParseError) as err:
        parse_algebra(text)
    assert str(err.value) == error
    assert _parse_outcome(per_cell_parse_algebra, text) == error


# --- blocks of rows and the loop forms they replaced ---------------------------

@pytest.mark.parametrize("cells", [1, 4, 6, 1 << 12])
def test_the_first_parse_error_does_not_depend_on_the_block_size(cells):
    # THREE's rows are 3 cells: one row per block, then one, then two
    with mock.patch.object(fileformats, "_BLOCK_CELLS", cells):
        for old, new, error in REPEATED_ROW_CASES:
            with pytest.raises(ParseError) as err:
                parse_algebra(THREE.replace(old, new))
            assert str(err.value) == error
        for text in EMITTED[:4] + EMITTED[-4:]:
            assert _parse_outcome(parse_algebra, text) == _parse_outcome(
                per_cell_parse_algebra, text)


@settings(max_examples=200, deadline=None)
@given(_mutated({"algebra": _SEEDS["algebra"] + EMITTED[:8]}), st.sampled_from([1, 5, 16]))
def test_parse_matches_the_per_cell_parser_in_small_blocks(case, cells):
    _, text = case
    with mock.patch.object(fileformats, "_BLOCK_CELLS", cells):
        assert _parse_outcome(parse_algebra, text) == _parse_outcome(
            per_cell_parse_algebra, text)


def per_row_render_algebra(alg):
    """Reference: the .dba renderer over the row tuples, one row at a time."""
    nm = alg.names
    out = ["elements: " + " ".join(nm)]
    for key, rows in (("meet", alg._tuples()[0]), ("join", alg._tuples()[1])):
        out += [f"{key}:", *(" ".join(nm[v] for v in row) for row in rows)]
    out.append("neg: " + " ".join(nm[v] for v in alg._tuples()[2]))
    out.append("opp: " + " ".join(nm[v] for v in alg._tuples()[3]))
    out += [f"top: {nm[alg.top]}", f"bot: {nm[alg.bot]}"]
    return "\n".join(out) + "\n"


def test_render_matches_the_per_row_renderer():
    algs = [alg for _, alg in builtin_fixtures()] + [parse_algebra(t) for t in EMITTED]
    for alg in algs:
        text = render_algebra(alg.renamed(alg.names))
        assert text == per_row_render_algebra(alg)
