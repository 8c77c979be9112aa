"""The four workloads of the dbakit benchmark.

Every workload has the same shape:

* ``generate(lib, seed, workdir)`` makes the seeded inputs as plain data
  (tuples, strings, files), never as dbakit objects, so they outlive the
  fresh re-import of ``dbakit`` that precedes measurement;
* ``items(inputs)`` lists the fixed item set of one pass, in order;
* ``run(lib, item, state)`` is the timed call into the library;
* ``check(lib, item, out, state)`` is the oracle: ``None`` when the output
  is right, else a one-line reason;
* ``record(item, out)`` is the deterministic text of the output that goes
  into the pass digest.

``state`` is a dict that lives for one pass (things items legitimately
share, such as the refutation model list); ``self.memo`` lives for the run
and holds only oracle-side values, built from the oracle's own objects so
that checking never warms a cache an item will later read.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

REPRESENT_MAX = 20  # the paper's representation budget; larger algebras skip it


@dataclass(frozen=True)
class Item:
    id: int
    kind: str
    payload: tuple


def spread_out(specs):
    """The specs in a fixed pseudo-random order.  Each kind of item then runs
    throughout the pass rather than in one stretch of it, so its latency
    quantiles average over the machine's speed during the whole run."""
    specs = list(specs)
    random.Random(0).shuffle(specs)
    return specs


def _context(lib, g, m, rows):
    """FormalContext with the names all_contexts() gives; rows are bitmasks."""
    inc = [[bool(rows[i] >> j & 1) for j in range(m)] for i in range(g)]
    return lib.fca.FormalContext([f"g{i}" for i in range(g)],
                                 [f"m{j}" for j in range(m)], inc)


def protoconcept_count(g, m, rows):
    """Number of protoconcepts (A, B), those with A'' = B', of the context
    with these row bitmasks: the size of its protoconcept algebra."""
    cols = [sum(1 << i for i in range(g) if rows[i] >> j & 1) for j in range(m)]

    def common(masks, members, full):
        out = full
        for k, mask in enumerate(masks):
            if members >> k & 1:
                out &= mask
        return out

    full_g, full_m = (1 << g) - 1, (1 << m) - 1
    by_closure, by_prime = {}, {}
    for a in range(1 << g):
        v = common(cols, common(rows, a, full_m), full_g)
        by_closure[v] = by_closure.get(v, 0) + 1
    for b in range(1 << m):
        v = common(cols, b, full_g)
        by_prime[v] = by_prime.get(v, 0) + 1
    return sum(k * by_prime.get(v, 0) for v, k in by_closure.items())


def _env_text(env, names):
    return " ".join(f"{k}={names[v]}" for k, v in sorted(env.items())) or "(no variables)"


# --- corpus -----------------------------------------------------------------

# One context in CORPUS_STRIDE of the exhaustive enumeration: the whole
# corpus (682 contexts) takes about 20 s, too long to repeat in a run.
CORPUS_STRIDE = 5


class Corpus:
    """Every fifth context up to 3x3 (137 of 682), from the paper's
    acceptance corpus, in enumeration order, so every shape keeps its share.

    Seed-independent by design: the corpus is a fixed slice of an
    exhaustive enumeration.
    """

    name = "corpus"
    pass_s = 6.5  # nominal pass time: a 20-s run makes three passes

    def generate(self, lib, seed, workdir):
        every = [(g, m, tuple(code >> (i * m) & ((1 << m) - 1) for i in range(g)))
                 for g in (1, 2, 3) for m in (1, 2, 3) for code in range(1 << (g * m))]
        return every[::CORPUS_STRIDE]

    def items(self, inputs):
        return [Item(i, "context", spec) for i, spec in enumerate(spread_out(inputs))]

    def run(self, lib, item, state):
        g, m, rows = item.payload
        ctx = _context(lib, g, m, rows)
        rp = lib.representation
        out = {}
        for kind in ("protoconcept", "semiconcept"):
            alg = lib.fca.protoconcept_algebra(ctx, kind).algebra
            cl = lib.algebra.classify(alg)
            _, fails = lib.algebra.check_identity_catalog(alg)
            rec = {
                "n": alg.n,
                "class": tuple(cl.as_lines()),
                "dba": cl.is_dba, "contextual": cl.is_contextual,
                "fully_contextual": cl.is_fully_contextual, "pure": cl.is_pure,
                "catalog_failures": tuple(str(v) for v in fails),
            }
            if alg.n <= REPRESENT_MAX:
                rep = rp.representation(alg)
                emb = rp.verify_pair_embedding(rep)
                char = rp.verify_clopen_characterization(rep)
                rec["rep"] = {
                    "filters": len(rep.std.filters), "ideals": len(rep.std.ideals),
                    "image": len(rep.pairs),
                    "derivation_failures": tuple(rp.verify_derivation_identities(rep)),
                    "pair_embedding": (emb["protoconcepts"], emb["homomorphism"], emb["order"]),
                    "image_maps": (rep.homomorphism, rep.order_preserving_reflecting,
                                   rep.surjective, rep.conditions_ok, rep.image_is_dba,
                                   rep.parts_boolean),
                    "injective": rep.injective, "isomorphism": rep.isomorphism,
                    "clopen_sets": rp.verify_clopen_sets(rep),
                    "characterization": (char.status, char.ok),
                }
            out[kind] = rec
        return out

    def check(self, lib, item, out, state):
        pa, sa = out["protoconcept"], out["semiconcept"]
        if not (pa["dba"] and pa["fully_contextual"]):
            return "protoconcept algebra is not a fully contextual dBa"
        if not (sa["dba"] and sa["pure"]):
            return "semiconcept algebra is not a pure dBa"
        for kind, rec in out.items():
            if rec["catalog_failures"]:
                return f"{kind}: catalog fails {rec['catalog_failures'][0]}"
            rep = rec.get("rep")
            if rep is None:
                if rec["n"] <= REPRESENT_MAX:
                    return f"{kind}: representation missing for n={rec['n']}"
                continue
            want = "protoconcept" if rec["fully_contextual"] else "semiconcept"
            if (rep["derivation_failures"] or not all(rep["pair_embedding"])
                    or not all(rep["image_maps"]) or not rep["clopen_sets"]
                    or rep["characterization"] != (want, True)
                    or (rec["contextual"] and not (rep["injective"] and rep["isomorphism"]))):
                return f"{kind}: a representation verdict is false"
        return None

    def record(self, item, out):
        return repr(sorted(out.items()))


# --- search -----------------------------------------------------------------

PINS3 = [(t, b) for t in range(3) for b in range(3)]
# DCORE13 sweeps cost 3x to 6x a DBA23 sweep: one per pass, on one of the
# pins with top != bot (7 models) that cost the same.  (1, 0) and (2, 0)
# cost 1.5x and 2.3x as much, pins with top == bot about 2x.
DCORE_PINS = [(0, 1), (0, 2), (1, 2), (2, 1)]
# Size-4 pins on which DBA23's first model is the first candidate (time to
# first model).  The other pins take 2 to 60 s, too long to repeat in a run.
QUICK4 = [(t, b) for t in range(4) for b in range(4) if t == 0 or b == 0]


class Search:
    """enumerate_algebras calls: complete size-3 DBA23 sweeps under every
    (top, bot) pin, a complete size-3 DCORE13 sweep under a seeded pin, the
    size-2 5a/5b rediscovery, and time to the first size-4 model under seeded
    pins.

    The seed picks the DCORE13 pin and the size-4 pins.  The DBA23 sweeps
    run in a fixed order (the first sweep of a pass pays for the cold
    checker, and its pin's cost would otherwise follow the seed), and the
    DCORE13 pins cost the same, so a pass does the same work for every seed.
    """

    name = "search"
    pass_s = 6.5  # nominal pass time: a 20-s run makes three passes

    def __init__(self):
        self.memo = {}  # pin -> DBA23 signatures, for the DCORE13 oracle

    def generate(self, lib, seed, workdir):
        rng = random.Random(seed)
        return {"dba": PINS3, "dcore": [rng.choice(DCORE_PINS)],
                "size4": rng.sample(QUICK4, 3)}

    def items(self, inputs):
        # Each DCORE13 sweep right after the DBA23 sweep on its pin (its oracle
        # compares the two); the other sweeps and the short calls in between.
        others = [("dba3", pin) for pin in inputs["dba"] if pin not in inputs["dcore"]]
        short = [("mustfail", None)] + [("first4", pin) for pin in inputs["size4"]]
        specs = []
        for pin in inputs["dcore"]:
            specs += [("dba3", pin), ("dcore3", pin)] + others[:2] + short[:2]
            others, short = others[2:], short[2:]
        specs += others + short
        return [Item(i, kind, pin) for i, (kind, pin) in enumerate(specs)]

    def _spec(self, lib, item):
        S = lib.search.SearchSpec
        t, b = item.payload or (None, None)
        if item.kind == "dba3":
            return S(size=3, require="DBA23", fixed_top=t, fixed_bot=b)
        if item.kind == "dcore3":
            return S(size=3, require="DCORE13", fixed_top=t, fixed_bot=b)
        if item.kind == "mustfail":
            return S(size=2, require="DCORE13", must_fail=("5a", "5b"))
        return S(size=4, require="DBA23", fixed_top=t, fixed_bot=b, max_models=1)

    def run(self, lib, item, state):
        summary = lib.search.enumerate_algebras(self._spec(lib, item))
        return {"candidates": summary.candidates, "models": summary.models,
                "complete": summary.complete,
                "signatures": tuple(repr(a.signature()) for a in summary.found),
                "found": summary.found}

    def check(self, lib, item, out, state):
        found = out["found"]
        if len(found) != out["models"] or len(out["signatures"]) != len(found):
            return "model list does not match the model count"
        if [repr(a.signature()) for a in found] != list(out["signatures"]):
            return "signatures do not match the models"
        suite = "DBA23" if item.kind in ("dba3", "first4") else "DCORE13"
        reports = [lib.algebra.check_suite(a, suite) for a in found]
        if item.kind == "mustfail":
            if not out["complete"] or not found:
                return "no complete 5a/5b rediscovery"
            if any(r.failing_ids() != ("5a", "5b") for r in reports):
                return "a must_fail model does not fail exactly 5a,5b"
            return None
        if not all(r.ok for r in reports):
            return f"a model fails {suite}"
        t, b = item.payload
        if any((a.top, a.bot) != (t, b) for a in found):
            return "a model ignores the pin"
        if item.kind == "first4":
            return None if out["models"] == 1 and not out["complete"] else "no first model"
        if not out["complete"]:
            return "sweep incomplete"
        if item.kind == "dba3":
            self.memo[item.payload] = out["signatures"]
            # Relabelling maps the pin (t, b) to any pin with the same t == b
            # pattern, so 3 pins have 1 model and 6 have 7: 45 in all.
            if out["models"] != (1 if t == b else 7):
                return f"{out['models']} DBA23 models on pin {item.payload}"
            return None
        want = self.memo.get(item.payload)
        if want is not None and want != out["signatures"]:
            return "DCORE13 models differ from the DBA23 models on the same pin"
        return None

    def record(self, item, out):
        return repr((item.kind, item.payload, out["candidates"], out["models"],
                     out["complete"], out["signatures"]))


# --- prove ------------------------------------------------------------------

# (goal, depth, lemmas, found): search_proof targets with known outcomes.
# Left out, as too long to repeat in a run: "x & (x | y) => x & x" at depth 8
# (over a minute), commutativity with the idempotence lemma at depth 6 (5 s)
# and "x | y => y | x" at depth 5 (7 s), which is kept at depth 4.
PROOF_GOALS = (
    ("~(x & x) => ~x", 1, (), True),
    ("~~(x & y) => (x & y) & (x & y)", 3, (), True),
    ("x & y => (x & y) & (x & y)", 8, (), True),
    ("x | y => y | x", 4, (), False),
)
# Refutation goals, by (system, has a countermodel among the 2x2 context
# models).  The kinds cost differently (a goal without a countermodel scans
# every model; HL admits fewer models and fewer values than L), so a fixed
# mix keeps the pass cost and its latency quantiles the same from seed to
# seed: the median falls among the unrefuted HL goals, the 90th percentile
# among the unrefuted L goals.
REFUTE_MIX = {("L", True): 15, ("HL", True): 15, ("HL", False): 45, ("L", False): 45}
REFUTE_MODELS = "contexts:2x2"


def random_formula(rng, size):
    """A random formula over x, y, T, F with exactly ``size`` connectives, so
    that every goal costs about the same to evaluate."""
    if size == 0:
        return rng.choice(("x", "y", "x", "y", "T", "F"))
    op = rng.choice("&|~!")
    if op in "~!":
        return f"{op}({random_formula(rng, size - 1)})"
    left = rng.randrange(size)
    return f"({random_formula(rng, left)} {op} {random_formula(rng, size - 1 - left)})"


def random_goal(rng):
    """A sequent (system L) or a two-component hypersequent (system HL)."""
    if rng.random() < 0.5:
        return random_sequent(rng)
    while True:  # both variables, so every goal has n**2 assignments per model
        text = " ; ".join(f"{random_formula(rng, 2)} => {random_formula(rng, 2)}"
                          for _ in range(2))
        if "x" in text and "y" in text:
            return "HL", text


def random_sequent(rng):
    while True:
        text = f"{random_formula(rng, 4)} => {random_formula(rng, 4)}"
        if "x" in text and "y" in text:
            return "L", text


def split_goals(lib, rng, draw, models, mix):
    """Goals from ``draw(rng)``, redrawn until each (system, has a
    countermodel among ``models``) kind has its count in ``mix``; shuffled."""
    lg = lib.logic
    kept = {kind: [] for kind in mix}
    while any(len(kept[kind]) < mix[kind] for kind in mix):
        system, text = draw(rng)
        found = lg.find_countermodel(lg.parse_hypersequent(text, system), system, models)
        kind = (system, found is not None)
        if len(kept.get(kind, ())) < mix.get(kind, 0):
            kept[kind].append((system, text))
    goals = [goal for kind in mix for goal in kept[kind]]
    rng.shuffle(goals)
    return goals


def context_models(lib):
    """The model list behind ``refute --models contexts:2x2``, named as there."""
    ctxs = (c for g in (1, 2) for m in (1, 2) for c in lib.fca.all_contexts(g, m))
    return [(f"context-{i}", lib.fca.protoconcept_algebra(c).algebra)
            for i, c in enumerate(ctxs)]


def admits(lib, alg, system):
    cl = lib.algebra.classify(alg)
    return cl.is_dba and (cl.is_contextual if system == "L" else cl.is_pure)


class Prove:
    """search_proof on fixed goals, and find_countermodel on seeded random
    sequents and hypersequents over x, y against the 2x2 context models."""

    name = "prove"
    pass_s = 6.5  # nominal pass time: a 20-s run makes three passes

    def __init__(self):
        self.memo = {}

    def generate(self, lib, seed, workdir):
        return split_goals(lib, random.Random(seed), random_goal,
                           context_models(lib), REFUTE_MIX)

    def items(self, inputs):
        # the proof searches spread evenly among the refutations
        specs = [("refute", goal) for goal in inputs]
        step = len(specs) // len(PROOF_GOALS) + 1
        for k, goal in enumerate(PROOF_GOALS):
            specs.insert(k * step, ("proof", goal))
        return [Item(i, kind, goal) for i, (kind, goal) in enumerate(specs)]

    def run(self, lib, item, state):
        lg = lib.logic
        if item.kind == "proof":
            text, depth, lemmas, _ = item.payload
            goal = lg.parse_hypersequent(text, "L")
            script = lg.search_proof(goal, "L", depth,
                                     lemmas=[lg.parse_sequent(s, "L") for s in lemmas])
            return {"script": script, "text": None if script is None else lg.render_script(script)}
        system, text = item.payload
        if "models" not in state:  # built once per pass, paid by the first refute item
            state["models"] = context_models(lib)
        found = lg.find_countermodel(lg.parse_hypersequent(text, system), system,
                                     state["models"])
        if found is None:
            return {"model": None}
        name, alg, env = found
        return {"model": name, "env": tuple(sorted(env.items()))}

    def check(self, lib, item, out, state):
        lg = lib.logic
        if item.kind == "proof":
            text, _, _, expect = item.payload
            script = out["script"]
            if (script is not None) != expect:
                return f"found={script is not None}, expected {expect}"
            if script is None:
                return None
            if not lg.check_proof(script).valid:
                return "returned script does not re-check"
            if script.lines[-1].hyp != lg.parse_hypersequent(text, "L"):
                return "script does not end in the goal"
            if lg.render_script(script) != out["text"]:
                return "rendered script differs"
            return None
        system, text = item.payload
        if "models" not in self.memo:
            self.memo["models"] = context_models(lib)
        goal = lg.parse_hypersequent(text, system)
        models = self.memo["models"]
        if out["model"] is None:
            for _, alg in models:
                if admits(lib, alg, system) and not lg.is_true_in(alg, goal, system):
                    return "no countermodel reported, but one exists"
            return None
        alg = dict(models)[out["model"]]
        env = dict(out["env"])
        if not admits(lib, alg, system):
            return "countermodel is outside the system's class"
        # HL object variables (x, y) range over the meet idempotents
        if system == "HL" and not set(env.values()) <= lib.algebra.meet_idempotents(alg):
            return "assignment leaves the object-variable range"
        if any(lg.eval_sequent(alg, comp, env) for comp in goal.components):
            return "countermodel assignment satisfies a component"
        return None

    def record(self, item, out):
        if item.kind == "proof":
            return f"proof {item.payload[0]}\n{out['text']}"
        return f"refute {item.payload} -> {out['model']} {out.get('env')}"


# --- cli --------------------------------------------------------------------

# (rows, columns, protoconcept-algebra size).  Each context is redrawn until
# its algebra has exactly that size, so every seed checks algebras of the same
# sizes (checking costs about n**3) and a pass costs about the same; the
# sizes are common ones for their shape.  3x3 algebras are small enough for
# the representation.
CLI_CONTEXTS = (
    (3, 3, 12), (3, 3, 12), (3, 3, 16), (3, 3, 16),
    (4, 4, 26), (4, 4, 26),
    (5, 4, 40), (5, 4, 40),
    (5, 5, 56), (5, 5, 56),
    (6, 5, 85), (6, 5, 85), (6, 5, 85),
    (7, 6, 178), (7, 6, 178),
)
POWERSET_ATOMS = (1, 2, 4)
CLI_REFUTES = 10


class Cli:
    """In-process ``dbakit.cli.main(argv)`` calls on files written at set-up:
    seeded contexts from 3x3 to 7x6 and their protoconcept algebras."""

    name = "cli"
    pass_s = 6.5  # nominal pass time: a 20-s run makes three passes

    def __init__(self):
        self.memo = {}  # argv -> expected result
        self.parsed = {}  # path -> the oracle's own parse, so suite reports are shared

    def generate(self, lib, seed, workdir):
        rng = random.Random(seed)
        d = Path(workdir) / "cli"
        d.mkdir(parents=True, exist_ok=True)
        contexts = []
        for k, (g, m, size) in enumerate(CLI_CONTEXTS):
            while True:
                rows = tuple(rng.getrandbits(m) for _ in range(g))
                if protoconcept_count(g, m, rows) == size:
                    break
            ctx = _context(lib, g, m, rows)
            alg = lib.fca.protoconcept_algebra(ctx).algebra
            if alg.n != size:
                raise RuntimeError(f"protoconcept count {size} disagrees with dbakit's {alg.n}")
            cxt, dba = d / f"c{k}.cxt", d / f"c{k}.dba"
            cxt.write_text(lib.fileformats.render_context(ctx), encoding="utf-8")
            dba.write_text(lib.fileformats.render_algebra(alg), encoding="utf-8")
            contexts.append((str(cxt), str(dba), alg.n))
        for a in POWERSET_ATOMS:
            (d / f"b{a}.dba").write_text(lib.fileformats.render_algebra(
                lib.constructions.powerset_boolean(a).alg), encoding="utf-8")
        proofs = []
        for name, script in lib.logic.fixture_proofs():
            p = d / f"{name}.proof"
            p.write_text(lib.logic.render_script(script), encoding="utf-8")
            proofs.append(str(p))
        # against the fixtures: any goal; against the 2x2 context models: goals
        # without a countermodel there, so each scans every model
        refutes = [random_sequent(rng)[1] for _ in range(CLI_REFUTES // 2)]
        refutes += [text for _, text in split_goals(
            lib, rng, random_sequent, context_models(lib),
            {("L", False): CLI_REFUTES // 2})]
        return {"dir": str(d), "contexts": contexts, "proofs": proofs, "refutes": refutes}

    def items(self, inputs):
        d = inputs["dir"]
        argvs = []
        for k, (cxt, dba, n) in enumerate(inputs["contexts"]):
            argvs += [["protoconcepts", cxt],
                      ["protoconcepts", cxt, "--kind", "oo-semi"],
                      ["protoconcepts", cxt, "--emit-algebra", f"{d}/c{k}.emit.dba"],
                      ["check", dba, "--suite", "dba"],
                      ["check", dba, "--suite", "dcore"],
                      ["classify", dba]]
            if n <= REPRESENT_MAX:
                argvs.append(["represent", dba])
        argvs += [["construct", "glued-sum", f"{d}/b{p}.dba", f"{d}/b{q}.dba"]
                  for p in POWERSET_ATOMS for q in POWERSET_ATOMS]
        argvs += [["checkproof", p] for p in inputs["proofs"]]
        half = len(inputs["refutes"]) // 2
        argvs += [["refute", goal, "--models", "fixtures" if k < half else REFUTE_MODELS]
                  for k, goal in enumerate(inputs["refutes"])]
        argvs += [["search", "--size", "2", "--require", "dba"],
                  ["search", "--size", "2", "--require", "dcore", "--fail", "5a,5b"]]
        return [Item(i, argv[0], tuple(argv)) for i, argv in enumerate(spread_out(argvs))]

    def run(self, lib, item, state):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = lib.cli.main(list(item.payload))
        return {"code": code, "stdout": buf.getvalue()}

    def check(self, lib, item, out, state):
        want = self.memo.get(item.payload)
        if want is None:
            want = self.memo[item.payload] = self.expected(lib, item.payload)
        code, body, structured = want
        text = out["stdout"]
        if "\n---\n" not in text:
            return f"exit {out['code']}, no structured output"
        head, tail = text.split("\n---\n", 1)
        got = [tuple(line.split(": ", 1)) for line in tail.splitlines()]
        if out["code"] != code:
            return f"exit {out['code']}, expected {code}"
        if got != structured:
            return f"structured lines {got} differ from library values {structured}"
        if body is not None and head.splitlines() != body:
            return "report lines differ from library values"
        return None

    def expected(self, lib, argv):
        """(exit code, report lines or None, structured pairs) from direct
        library calls on the oracle's own parse of the same files."""
        ff, al = lib.fileformats, lib.algebra

        def load(path):
            if path not in self.parsed:
                self.parsed[path] = ff.parse_algebra(Path(path).read_text(encoding="utf-8"))
            return self.parsed[path]

        cmd = argv[0]
        if cmd == "protoconcepts":
            ctx = ff.parse_context(Path(argv[1]).read_text(encoding="utf-8"))
            kind = "oo_semiconcept" if "--kind" in argv else "protoconcept"
            out = [("kind", kind), ("count", str(len(lib.fca.enumerate_pairs(ctx, kind))))]
            if "--emit-algebra" in argv:
                path = argv[-1]
                alg = lib.fca.protoconcept_algebra(ctx, kind).algebra
                if Path(path).read_text(encoding="utf-8") != ff.render_algebra(alg):
                    out.append(("emitted", "<file differs from render_algebra>"))
                else:
                    out.append(("emitted", path))
                out.append(("algebra_elements", str(alg.n)))
            return 0, None, out
        if cmd == "check":
            # protoconcept algebras are dBas: both suites must pass
            rep = al.check_suite(load(argv[1]), {"dba": "DBA23", "dcore": "DCORE13"}[argv[3]])
            return 0, None, [("suite", rep.suite_id), ("axioms", str(len(rep.verdicts))),
                             ("failures", "0"), ("pass", "true")]
        if cmd == "classify":
            alg = load(argv[1])
            return 0, al.classify(alg).as_lines(alg.names), [("elements", str(alg.n))]
        if cmd == "represent":
            return self.expected_represent(lib, load(argv[1]))
        if cmd == "construct":
            cs = lib.constructions
            alg = cs.glued_sum(cs.BooleanView(load(argv[2])), cs.BooleanView(load(argv[3])))
            # glued sums of Boolean algebras are pure, trivial dBas
            return 0, ff.render_algebra(alg).rstrip("\n").splitlines(), [
                ("elements", str(alg.n)), ("dba", "true"), ("pure", "true"), ("trivial", "true")]
        if cmd == "checkproof":
            # the fixture scripts are valid derivations
            lg = lib.logic
            script = lg.parse_script(Path(argv[1]).read_text(encoding="utf-8"))
            return 0, [str(lg.check_proof(script))], [
                ("system", script.system), ("lines", str(len(script.lines))), ("valid", "true")]
        if cmd == "refute":
            lg = lib.logic
            source = argv[3]
            models = (lib.fixtures.builtin_fixtures() if source == "fixtures"
                      else context_models(lib))
            found = lg.find_countermodel(lg.parse_hypersequent(argv[1], "L"), "L", models)
            if found is None:
                return 0, None, [("countermodel", "none")]
            name, alg, env = found
            return 0, None, [("countermodel", "found"), ("model", name),
                             ("elements", str(alg.n)),
                             ("assignment", _env_text(env, alg.names))]
        if cmd == "search":
            must_fail = tuple(argv[argv.index("--fail") + 1].split(",")) if "--fail" in argv else ()
            s = lib.search.enumerate_algebras(lib.search.SearchSpec(
                size=2, require=argv[4], must_fail=must_fail))
            return 0, None, [("candidates", str(s.candidates)), ("models", str(s.models)),
                             ("complete", "true")]
        raise ValueError(f"no oracle for {cmd}")

    def expected_represent(self, lib, alg):
        rp = lib.representation
        rep = rp.representation(alg)
        emb = rp.verify_pair_embedding(rep)
        checks = [
            ("derivation_identities", not rp.verify_derivation_identities(rep)),
            ("pair_protoconcepts", emb["protoconcepts"]),
            ("pair_homomorphism", emb["homomorphism"]),
            ("pair_order", emb["order"]),
            ("image_homomorphism", rep.homomorphism),
            ("image_order", rep.order_preserving_reflecting),
            ("conditions: new", rep.conditions_ok),
            ("image_dba", rep.image_is_dba),
            ("parts_boolean", rep.parts_boolean),
        ]
        if lib.algebra.classify(alg).is_contextual:
            checks.append(("isomorphism", rep.isomorphism))
        checks.append(("clopen_families", rp.verify_clopen_sets(rep)))
        char = rp.verify_clopen_characterization(rep)
        body = [f"primary_filters: {len(rep.std.filters)}",
                f"primary_ideals: {len(rep.std.ideals)}",
                f"image_elements: {len(rep.pairs)}"]
        if char.status == "not-applicable":
            body.append("clopen_characterization: not applicable")
        else:
            checks.append((f"clopen_{char.status}_characterization", char.ok))
        checks.append(("translated_continuity", rp.verify_translated_continuity(rep)))
        # the structured line for "conditions: new" splits at its first ": "
        pairs = [tuple(f"{k}: {'ok' if v else 'FAIL'}".split(": ", 1)) for k, v in checks]
        # every verdict on a protoconcept algebra must hold, whatever the library says
        return 0, body, pairs + [("pass", "true")]

    def record(self, item, out):
        text = f"$ dbakit {' '.join(item.payload)}\n[exit {out['code']}]\n{out['stdout']}"
        if "--emit-algebra" in item.payload:
            text += Path(item.payload[-1]).read_text(encoding="utf-8")
        return text


WORKLOADS = {w.name: w for w in (Corpus, Search, Prove, Cli)}
