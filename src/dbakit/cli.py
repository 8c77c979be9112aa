"""Command-line front end.

Exit codes: 0 success; 1 a checked mathematical property failed; 2 usage or
parse error (including inputs outside a command's domain); 3 a budget was
exceeded.  Every exit-2 error, from argparse or from a command, prints
``error: <message>`` on stdout.  Output is deterministic for fixed inputs and
flags: a human report, then a ``---`` separator, then stable ``key: value``
lines.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .algebra import _class_flags, check_suite, classify, passes
from .constructions import (
    BooleanView, RetractionPair, build_from_boolean_pair, check_theorem_conditions,
    generalized_glued_sum, glued_sum,
)
from .errors import BudgetError, DbakitError
from .fca import enumerate_pairs, oo_protoconcept_algebra, protoconcept_algebra
from .fileformats import parse_algebra, parse_context, render_algebra, render_context
from .logic import (
    check_proof, find_countermodel, parse_hypersequent, parse_script,
    parse_sequent, render_script, search_proof,
)
from .models import model_set
from .representation import (
    representation, verify_clopen_characterization, verify_clopen_sets,
    verify_derivation_identities, verify_pair_embedding, verify_translated_continuity,
)
from .search import SearchSpec, enumerate_algebras

DEFAULT_SEARCH_SIZE = 3
DEFAULT_PROOF_DEPTH = 8
# ``prove`` without a proof costs about 4.5x more per +4 ``--depth``.  On a
# 2-core Intel Xeon (Python 3.11) ``x => y`` takes 0.4-0.6 s at depth 12,
# 2.3-2.7 s at 16, 13 s at 20, 55 s at 24; ``~x => !x`` 23 s at 16.
MAX_PROOF_DEPTH = 16
# ``protoconcepts --emit-algebra`` builds n x n tables on the n pairs.  On a
# 2-core Intel Xeon (Python 3.11) 2,156 pairs take 0.4-0.5 s and 327 MB peak
# RSS, 3,206 take 1.0-1.2 s and 689 MB.
MAX_EMIT_PAIRS = 2048


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors go where command errors go: ``error: <message>`` on
    stdout, exit code 2.  The usage text stays on stderr.  Subparsers are
    built from the parent's class, so they inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stdout.write(f"error: {message}\n")
        self.exit(2)


def _int_at_least(minimum):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _load(path, parse):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise _Usage(f"cannot read {path}: {exc}") from None
    return parse(text)


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Usage(f"cannot write {path}: {exc.strerror}") from None


def _emit(lines, structured):
    out = list(lines)
    if structured:
        out.append("---")
        out.extend(structured)
    return "\n".join(out) + "\n"


def _witness_text(witness, names):
    if not witness:
        return "(no variables)"
    return " ".join(f"{k}={names[v]}" for k, v in sorted(witness.items()))


def cmd_check(args) -> tuple[int, str]:
    alg = _load(args.path, parse_algebra)
    report = check_suite(alg, args.suite)
    lines = []
    for v in report.verdicts:
        if v.holds:
            lines.append(f"{v.equation.id}: ok")
        else:
            lines.append(f"{v.equation.id}: FAIL {_witness_text(v.witness, alg.names)}")
    structured = [
        f"suite: {report.suite_id}",
        f"axioms: {len(report.verdicts)}",
        f"failures: {len(report.failures)}",
        f"pass: {str(report.ok).lower()}",
    ]
    return (0 if report.ok else 1), _emit(lines, structured)


def cmd_classify(args) -> tuple[int, str]:
    alg = _load(args.path, parse_algebra)
    report = classify(alg)
    return 0, _emit(report.as_lines(alg.names), [f"elements: {alg.n}"])


_KIND_MAP = {
    "proto": "protoconcept",
    "semi": "semiconcept",
    "concept": "concept",
    "oo-proto": "oo_protoconcept",
    "oo-semi": "oo_semiconcept",
}


def _set_text(mask, names):
    return "{" + ",".join(names[i] for i in range(len(names)) if mask >> i & 1) + "}"


def cmd_protoconcepts(args) -> tuple[int, str]:
    ctx = _load(args.path, parse_context)
    kind = _KIND_MAP[args.kind]
    pairs = enumerate_pairs(ctx, kind)
    # each distinct extent and intent rendered once: pairs share them
    extents = {m: _set_text(m, ctx.objects) for m in {p.extent for p in pairs}}
    intents = {m: _set_text(m, ctx.attributes) for m in {p.intent for p in pairs}}
    lines = [f"({extents[p.extent]}, {intents[p.intent]})" for p in pairs]
    structured = [f"kind: {kind}", f"count: {len(pairs)}"]
    if args.emit_algebra:
        if kind == "concept":
            raise _Usage("--emit-algebra needs a protoconcept/semiconcept kind")
        if len(pairs) > MAX_EMIT_PAIRS:
            raise BudgetError(f"--emit-algebra on {len(pairs)} pairs, "
                              f"more than the limit of {MAX_EMIT_PAIRS}")
        if kind.startswith("oo_"):
            pa = oo_protoconcept_algebra(ctx, kind)
        else:
            pa = protoconcept_algebra(ctx, kind)
        _write(args.emit_algebra, render_algebra(pa.algebra))
        structured.append(f"emitted: {args.emit_algebra}")
        structured.append(f"algebra_elements: {pa.algebra.n}")
    return 0, _emit(lines, structured)


def _boolean_view(path):
    alg = _load(path, parse_algebra)
    if not passes(alg, "BOOLEAN"):
        raise _Usage(f"{path}: designated operations do not satisfy the BOOLEAN suite")
    return BooleanView(alg)


def cmd_construct(args) -> tuple[int, str]:
    if args.what == "glued-sum":
        p, q = _boolean_view(args.p), _boolean_view(args.q)
        alg = glued_sum(p, q)
        flags = _class_flags(alg)  # DBA23 and the tables: no other suite
        ok = flags.is_dba and flags.is_pure and flags.is_trivial
        structured = [
            f"elements: {alg.n}",
            f"dba: {str(flags.is_dba).lower()}",
            f"pure: {str(flags.is_pure).lower()}",
            f"trivial: {str(flags.is_trivial).lower()}",
        ]
    elif args.what == "gen-glued-sum":
        p, q = _boolean_view(args.p), _boolean_view(args.q)
        overlap = {}
        if args.identify:
            for chunk in args.identify.split(","):
                if "=" not in chunk:
                    raise _Usage(f"--identify entries must be pname=qname, got {chunk!r}")
                a, b = (name.strip() for name in chunk.split("=", 1))
                x, y = p.alg.index(a), q.alg.index(b)
                if overlap.setdefault(x, y) != y:
                    raise _Usage(f"--identify pairs {a} with both "
                                 f"{q.alg.names[overlap[x]]} and {b}")
        gs = generalized_glued_sum(p, q, overlap)
        alg = gs.algebra
        ok = passes(alg, "GDCORE11") if (
            p.top in overlap and q.bot in overlap.values()) else True
        structured = [
            f"elements: {alg.n}",
            f"gdcore: {str(passes(alg, 'GDCORE11')).lower()}",
            f"order_antisymmetric: {str(gs.order.antisymmetric).lower()}",
        ]
    else:  # from-booleans
        missing = [f"--{flag}" for flag in ("size", "r", "e", "rp", "ep")
                   if getattr(args, flag) is None]
        if missing:
            raise _Usage(f"from-booleans needs {' '.join(missing)}")
        p, q = _boolean_view(args.p), _boolean_view(args.q)
        size = args.size

        def index_list(text, what):
            toks = [t for t in text.replace(",", " ").split() if t]
            try:
                return [int(t) for t in toks]
            except ValueError:
                raise _Usage(f"--{what} must be a list of integers") from None

        p_pair = RetractionPair(size, p, index_list(args.r, "r"), index_list(args.e, "e"))
        q_pair = RetractionPair(size, q, index_list(args.rp, "rp"), index_list(args.ep, "ep"))
        cond = check_theorem_conditions(size, p_pair, q_pair, "new")
        alg = build_from_boolean_pair(size, p_pair, q_pair)
        is_dba = passes(alg, "DBA23")
        ok = cond.ok == is_dba  # the two verdicts must agree
        structured = [
            f"elements: {alg.n}",
            f"conditions: {str(cond.ok).lower()}",
            f"dba: {str(is_dba).lower()}",
        ]
    text = render_algebra(alg)
    lines = text.rstrip("\n").splitlines()
    if args.out:
        _write(args.out, text)
        structured.append(f"emitted: {args.out}")
    return (0 if ok else 1), _emit(lines, structured)


def cmd_represent(args) -> tuple[int, str]:
    alg = _load(args.path, parse_algebra)
    if not passes(alg, "DBA23"):
        raise _Usage(f"{args.path}: input does not satisfy DBA23")
    rep = representation(alg)
    lines = [
        f"primary_filters: {len(rep.std.filters)}",
        f"primary_ideals: {len(rep.std.ideals)}",
        f"image_elements: {len(rep.pairs)}",
    ]
    if args.emit_context:
        _write(args.emit_context, render_context(rep.std.context))
        lines.append(f"emitted: {args.emit_context}")
    checks = []
    if args.verify in ("all", "lemma"):
        fails = verify_derivation_identities(rep)
        checks.append(("derivation_identities", not fails))
    if args.verify in ("all", "embedding"):
        emb = verify_pair_embedding(rep)
        checks.append(("pair_protoconcepts", emb["protoconcepts"]))
        checks.append(("pair_homomorphism", emb["homomorphism"]))
        checks.append(("pair_order", emb["order"]))
        checks.append(("image_homomorphism", rep.homomorphism))
        checks.append(("image_order", rep.order_preserving_reflecting))
        checks.append(("conditions: new", rep.conditions_ok))
        checks.append(("image_dba", rep.image_is_dba))
        checks.append(("parts_boolean", rep.parts_boolean))
        if _class_flags(alg).is_contextual:
            checks.append(("isomorphism", rep.isomorphism))
    if args.verify in ("all", "clopen"):
        checks.append(("clopen_families", verify_clopen_sets(rep)))
        char = verify_clopen_characterization(rep)
        if char.status == "not-applicable":
            lines.append("clopen_characterization: not applicable")
        else:
            checks.append((f"clopen_{char.status}_characterization", char.ok))
        checks.append(("translated_continuity", verify_translated_continuity(rep)))
    ok = all(v for _, v in checks)
    structured = [f"{name}: {'ok' if v else 'FAIL'}" for name, v in checks]
    structured.append(f"pass: {str(ok).lower()}")
    return (0 if ok else 1), _emit(lines, structured)


def cmd_prove(args) -> tuple[int, str]:
    goal = parse_hypersequent(args.goal, args.system)
    lemmas = [parse_sequent(text, args.system) for text in (args.lemma or [])]
    if args.depth > MAX_PROOF_DEPTH:
        raise BudgetError(f"--depth {args.depth} is more than the limit of {MAX_PROOF_DEPTH}")
    script = search_proof(goal, args.system, depth=args.depth, lemmas=lemmas)
    if script is None:
        return 0, _emit([f"goal: {goal}"],
                        ["proved: false", f"depth_budget: {args.depth}"])
    lines = render_script(script).rstrip("\n").splitlines()
    return 0, _emit(lines, ["proved: true", f"lines: {len(script.lines)}"])


def cmd_checkproof(args) -> tuple[int, str]:
    script = _load(args.path, parse_script)
    report = check_proof(script)
    structured = [f"system: {script.system}",
                  f"lines: {len(script.lines)}",
                  f"valid: {str(report.valid).lower()}"]
    if not report.valid:
        structured.append(f"first_bad_line: {report.line}")
        structured.append(f"reason: {report.reason}")
    return (0 if report.valid else 1), _emit([str(report)], structured)


def cmd_refute(args) -> tuple[int, str]:
    goal = parse_hypersequent(args.goal, args.system)
    found = find_countermodel(goal, args.system, model_set(args.models))
    lines = [f"goal: {goal}",
             "semantics: hypersequent holds when some component holds, for every assignment"]
    if found is None:
        return 0, _emit(lines, ["countermodel: none"])
    name, alg, env = found
    structured = [
        "countermodel: found",
        f"model: {name}",
        f"elements: {alg.n}",
        "assignment: " + _witness_text(env, alg.names),
    ]
    return 0, _emit(lines, structured)


def cmd_search(args) -> tuple[int, str]:
    spec = SearchSpec(
        size=args.size,
        require=args.require,
        must_fail=tuple(args.fail.split(",")) if args.fail else (),
        max_models=args.limit,
        max_candidates=args.max_candidates,
    )
    summary = enumerate_algebras(spec)
    lines = []
    for i, alg in enumerate(summary.found):
        lines.append(f"# model {i}")
        lines.extend(render_algebra(alg).rstrip("\n").splitlines())
    structured = [
        f"candidates: {summary.candidates}",
        f"models: {summary.models}",
        f"complete: {str(summary.complete).lower()}",
    ]
    code = 0 if summary.complete else 3
    return code, _emit(lines, structured)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="dbakit",
        description="finite double Boolean algebra toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check an axiom suite on a .dba file")
    p.add_argument("path")
    p.add_argument("--suite", default="dba", choices=["dba", "dcore", "gdcore", "boolean"])
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("classify", help="report every class predicate")
    p.add_argument("path")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("protoconcepts", help="enumerate pairs of a .cxt context")
    p.add_argument("path")
    p.add_argument("--kind", default="proto", choices=sorted(_KIND_MAP))
    p.add_argument("--emit-algebra", metavar="OUT")
    p.set_defaults(fn=cmd_protoconcepts)

    p = sub.add_parser("construct", help="build algebras from Boolean algebras")
    p.add_argument("what", choices=["glued-sum", "gen-glued-sum", "from-booleans"])
    p.add_argument("p", help=".dba file for the meet-side Boolean algebra")
    p.add_argument("q", help=".dba file for the join-side Boolean algebra")
    p.add_argument("--identify", help="gen-glued-sum: comma list pname=qname")
    p.add_argument("--size", type=_int_at_least(1), help="from-booleans: carrier size")
    p.add_argument("--r", help="from-booleans: carrier->P indices")
    p.add_argument("--e", help="from-booleans: P->carrier indices")
    p.add_argument("--rp", help="from-booleans: carrier->Q indices")
    p.add_argument("--ep", help="from-booleans: Q->carrier indices")
    p.add_argument("--out", help="write the result as .dba")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("represent", help="primary filters/ideals and the pair map")
    p.add_argument("path")
    p.add_argument("--verify", default="all", choices=["all", "lemma", "embedding", "clopen"])
    p.add_argument("--emit-context", metavar="OUT",
                   help="write the standard context as .cxt")
    p.set_defaults(fn=cmd_represent)

    p = sub.add_parser("prove", help="backward proof search")
    p.add_argument("goal")
    p.add_argument("--system", default="L", choices=["L", "HL"])
    p.add_argument("--depth", type=_int_at_least(1), default=DEFAULT_PROOF_DEPTH)
    p.add_argument("--lemma", action="append", help="extra cut source (repeatable)")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("checkproof", help="validate a proof script file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_checkproof)

    p = sub.add_parser("refute", help="search models for a countermodel")
    p.add_argument("goal")
    p.add_argument("--system", default="L", choices=["L", "HL"])
    p.add_argument("--models", default="fixtures",
                   help="fixtures | contexts:GxM | search:N")
    p.set_defaults(fn=cmd_refute)

    p = sub.add_parser("search", help="enumerate algebras with constraints")
    p.add_argument("--size", type=_int_at_least(1), default=DEFAULT_SEARCH_SIZE)
    p.add_argument("--require", help="suite that must hold (dba/dcore/gdcore/boolean)")
    p.add_argument("--fail", help="comma list of axiom ids that must each fail")
    p.add_argument("--limit", type=_int_at_least(1), help="stop after this many models")
    p.add_argument("--max-candidates", type=_int_at_least(0))
    p.set_defaults(fn=cmd_search)

    return ap


# built on the first ``main`` call, not at import, and reused: parsing keeps
# no state in the parser
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, text = args.fn(args)
    except BudgetError as exc:
        sys.stdout.write(f"budget exceeded: {exc}\n")
        return 3
    except (_Usage, DbakitError) as exc:
        sys.stdout.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
