"""Text formats for algebras (.dba) and formal contexts (.cxt).

.dba (UTF-8, '#' starts a comment)::

    elements: e1 e2 ...
    meet:
    <n rows of n element names>
    join:
    <n rows of n element names>
    neg: <n names>
    opp: <n names>
    top: <name>
    bot: <name>

.cxt::

    objects: g1 g2 ...
    attributes: m1 m2 ...
    <|G| rows over {X, .} of length |M|; with no attributes, none>

render(parse(text)) is the identity up to whitespace normalization.
"""

from __future__ import annotations

from itertools import chain, takewhile

import numpy as np

from .algebra import FiniteAlgebra
from .errors import ParseError
from .fca import FormalContext

_BLOCK_CELLS = 1 << 12  # table cells parsed in one np.fromiter


def _logical_lines(text: str):
    """(lineno, tokens) for nonblank lines with comments stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw[:raw.index("#")] if "#" in raw else raw).strip()
        if line:
            yield lineno, line


def parse_algebra(text: str) -> FiniteAlgebra:
    lines = list(_logical_lines(text))
    pos = 0
    sections: dict = {}
    while pos < len(lines):
        lineno, line = lines[pos]
        pos += 1
        if ":" not in line:
            raise ParseError(f"expected 'section: ...', got {line!r}", lineno, 1)
        key, rest = (part.strip() for part in line.split(":", 1))
        if key in sections:
            raise ParseError(f"duplicate section {key!r}", lineno, 1)
        if key in ("elements", "neg", "opp", "top", "bot"):
            sections[key] = (lineno, rest.split())
        elif key in ("meet", "join"):
            if rest:
                raise ParseError(f"{key!r} rows must start on the following line", lineno, 1)
            if "elements" not in sections:
                raise ParseError(f"{key!r} section before 'elements'", lineno, 1)
            n = len(sections["elements"][1])
            if pos + n > len(lines):
                raise ParseError("unexpected end of file")
            sections[key], pos = (lineno, lines[pos:pos + n]), pos + n
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

    def row(toks, lineno):
        try:
            return list(map(index.__getitem__, toks))
        except KeyError as unknown:  # the first unknown token
            raise ParseError(f"unknown element name {unknown.args[0]!r}", lineno, 1) from None

    def table2(key):
        # each distinct row text is read once, at its first row, a block of
        # rows at a time: a repeated row fails as its first occurrence did, and
        # a wrong length only after the names of the rows before it
        lines, firsts = sections[key][1], {}
        for rlineno, text in lines:
            firsts.setdefault(text, rlineno)
        distinct, blocks, step = list(firsts.items()), [], max(1, _BLOCK_CELLS // n)
        for block in (distinct[lo:lo + step] for lo in range(0, len(distinct), step)):
            rows = list(takewhile(lambda toks: len(toks) == n, (t.split() for t, _ in block)))
            try:
                blocks.append(np.fromiter(
                    map(index.__getitem__, chain.from_iterable(rows)), np.int64, len(rows) * n))
            except KeyError:  # name the first unknown token
                for (_, rlineno), toks in zip(block, rows):
                    row(toks, rlineno)
            if len(rows) < len(block):
                text, rlineno = block[len(rows)]
                raise ParseError(f"{key} row has {len(text.split())} entries, expected {n}",
                                 rlineno, 1)
        ids = dict(zip(firsts, range(len(firsts))))
        return np.concatenate(blocks).reshape(-1, n)[[ids[text] for _, text in lines]]

    def table1(key):
        lineno, toks = sections[key]
        if len(toks) != n:
            raise ParseError(f"{key} needs {n} entries, got {len(toks)}", lineno, 1)
        return row(toks, lineno)

    def const(key):
        lineno, toks = sections[key]
        if len(toks) != 1:
            raise ParseError(f"{key} needs exactly one element name", lineno, 1)
        return row(toks, lineno)[0]

    return FiniteAlgebra(
        names, table2("meet"), table2("join"), table1("neg"), table1("opp"),
        const("top"), const("bot"),
    )


def render_algebra(alg: FiniteAlgebra) -> str:
    nm = alg.names
    out = ["elements: " + " ".join(nm)]
    names = np.array(nm, dtype=object)
    for key, t in (("meet", alg.meet), ("join", alg.join)):
        rows = t.view(np.dtype((np.void, t.strides[0]))).ravel().tolist()  # each row's bytes
        first = dict(zip(rows[::-1], range(alg.n - 1, -1, -1)))  # each distinct row's first
        text = dict(zip(first, map(" ".join, names[t[list(first.values())]].tolist())))
        out += [f"{key}:", *map(text.__getitem__, rows)]
    out.append("neg: " + " ".join(names[alg.neg].tolist()))
    out.append("opp: " + " ".join(names[alg.opp].tolist()))
    out.append(f"top: {nm[alg.top]}")
    out.append(f"bot: {nm[alg.bot]}")
    return "\n".join(out) + "\n"


def parse_context(text: str) -> FormalContext:
    lines = list(_logical_lines(text))
    if len(lines) < 2:
        raise ParseError("context file needs 'objects:' and 'attributes:' lines")
    (l1, first), (l2, second) = lines[0], lines[1]
    if not first.startswith("objects:"):
        raise ParseError("first line must start with 'objects:'", l1, 1)
    if not second.startswith("attributes:"):
        raise ParseError("second line must start with 'attributes:'", l2, 1)
    objects = first.split(":", 1)[1].split()
    attributes = second.split(":", 1)[1].split()
    for what, names, lineno in (("object", objects, l1), ("attribute", attributes, l2)):
        if len(set(names)) != len(names):
            dup = next(nm for k, nm in enumerate(names) if nm in names[:k])
            raise ParseError(f"duplicate {what} name {dup!r}", lineno, 1)
    rows = lines[2:]
    if not attributes and not rows:  # the empty rows are blank lines, which are skipped
        rows = [(None, "")] * len(objects)
    if len(rows) != len(objects):
        raise ParseError(
            f"expected {len(objects)} incidence rows, found {len(rows)}")
    incidence = []
    for lineno, row in rows:
        row = row.replace(" ", "")
        if len(row) != len(attributes):
            raise ParseError(
                f"incidence row has length {len(row)}, expected {len(attributes)}",
                lineno, 1)
        bits = []
        for ch in row:
            if ch == "X":
                bits.append(True)
            elif ch == ".":
                bits.append(False)
            else:
                raise ParseError(f"incidence cell must be 'X' or '.', got {ch!r}", lineno, 1)
        incidence.append(bits)
    return FormalContext(objects, attributes, incidence)


def render_context(ctx: FormalContext) -> str:
    out = ["objects: " + " ".join(ctx.objects),
           "attributes: " + " ".join(ctx.attributes)]
    for g in range(ctx.n_objects):
        out.append("".join("X" if ctx.incidence[g, m] else "." for m in range(ctx.n_attributes)))
    return "\n".join(out) + "\n"
