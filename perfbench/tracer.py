"""Outside-in tracing of dbakit: spans around calls into its public functions.

Each traced function is replaced, in every dbakit module namespace that bound
it (``search.satisfies_equation``, ``logic.classify``, ...), by a wrapper that
records a span (label, start, end, parent span, item id) while the tracer is
active.  Nothing inside ``src/`` changes, and ``restore()`` puts every
original back.  Self time is a span's duration minus the time its child spans
cover; it is accumulated as spans close.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

MAX_SPANS = 1_000_000  # ~30 MB of span records; later spans are counted, not kept

# (defining module, function, span label).  All verify_* functions share one
# label: the representation layer's verification cost is reported as a sum.
TARGETS = [
    ("terms", "parse_term", None), ("terms", "variables", None), ("terms", "subterms", None),
    ("algebra", "satisfies_equation", None), ("algebra", "check_suite", None),
    ("algebra", "classify", None), ("algebra", "quasi_order", None),
    ("algebra", "check_identity_catalog", None), ("algebra", "eval_term", None),
    ("fca", "enumerate_pairs", None), ("fca", "protoconcept_algebra", None),
    ("fca", "oo_protoconcept_algebra", None), ("fca", "derive", None), ("fca", "modal", None),
    ("constructions", "build_from_boolean_pair", None),
    ("constructions", "check_theorem_conditions", None), ("constructions", "glued_sum", None),
    ("representation", "enumerate_primary", None), ("representation", "representation", None),
    ("representation", "closed_set_family", None),
    ("representation", "verify_derivation_identities", "representation.verify"),
    ("representation", "verify_pair_embedding", "representation.verify"),
    ("representation", "verify_clopen_sets", "representation.verify"),
    ("representation", "verify_clopen_characterization", "representation.verify"),
    ("representation", "verify_translated_continuity", "representation.verify"),
    ("search", "enumerate_algebras", None),
    ("logic", "search_proof", None), ("logic", "check_proof", None),
    ("logic", "axiom_match", None), ("logic", "find_countermodel", None),
    ("logic", "falsifying_env", None), ("logic", "eval_sequent", None),
    ("fileformats", "parse_algebra", None), ("fileformats", "parse_context", None),
    ("fileformats", "render_algebra", None),
] + [("cli", f"cmd_{c}", f"cli.{c}") for c in (
    "protoconcepts", "check", "classify", "represent", "construct", "checkproof",
    "refute", "search")]

SAT = "algebra.satisfies_equation"
COUNTERS = {  # metric -> unit
    "algebra.check_suite.hit_ratio": "ratio",
    "algebra.distinct_signature_ratio": "ratio",
    "fca.enumerate_pairs.pairs": "count",
    "fca.enumerate_pairs.brute_calls": "count",
    "fca.enumerate_pairs.generated_calls": "count",
    "representation.enumerate_primary.found": "count",
    "representation.closed_set_family.family_size": "count",
    "search.enumerate_algebras.candidates": "count",
    "search.enumerate_algebras.models": "count",
    "search.model_ratio": "ratio",
    "search.leaf_checks": "count",
    "search.first_model_s": "s",
    "logic.proved_ratio": "ratio",
    "fileformats.parse_algebra.bytes": "bytes",
}


def span_labels():
    labels = []
    for module, fn, label in TARGETS:
        label = label or f"{module}.{fn}"
        if label == SAT:
            labels += [f"{SAT}.scalar", f"{SAT}.numpy"]
        elif label not in labels:
            labels.append(label)
    return labels


def metric_names():
    """Every per-layer metric a traced run reports, in order, with its unit."""
    out = []
    for label in span_labels():
        if not label.startswith("cli."):
            out.append((f"{label}.calls", "count"))
        out.append((f"{label}.self_s", "s"))
    out += list(COUNTERS.items())
    # filled in by the caller, which also times the untraced passes
    out += [("trace.overhead_items_per_s", "1/s"), ("trace.overhead_ratio", "ratio")]
    return out


class Tracer:
    def __init__(self):
        self.lib = None
        self.labels = span_labels()
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.calls = [0] * len(self.labels)
        self.self_s = [0.0] * len(self.labels)
        self.count = dict.fromkeys(COUNTERS, 0)
        self.stack = []  # [label index, start, child time, span id, parent id]
        self.spans = {k: array(t) for k, t in (("label", "H"), ("start", "d"), ("end", "d"),
                                               ("id", "q"), ("parent", "q"), ("item", "q"))}
        self.next_id = 0
        self.dropped = 0
        self.item = -1
        self.active = False
        self.patches = []
        self.sat_calls = 0
        self.suite_calls = self.suite_hits = 0
        self.proof_calls = self.proofs_found = 0
        self.first_model = []
        self.signatures = set()  # of the current pass: every pass starts cold
        self.distinct_signatures = 0  # summed over the finished passes
        self.algebras_checked = 0
        self.item_algebras = {}
        self.eq_arity = {}
        self.t0 = time.perf_counter()

    # -- spans ----------------------------------------------------------------

    def begin_item(self, item_id):
        self.item = item_id
        self.item_algebras = {}
        self.active = True

    def end_item(self):
        self.active = False
        self.item_algebras = {}

    def _enter(self, idx):
        parent = self.stack[-1][3] if self.stack else -1
        self.stack.append([idx, time.perf_counter(), 0.0, self.next_id, parent])
        self.next_id += 1

    def _exit(self):
        end = time.perf_counter()
        idx, start, child, sid, parent = self.stack.pop()
        dur = end - start
        self.calls[idx] += 1
        self.self_s[idx] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if len(self.spans["id"]) < MAX_SPANS:
            s = self.spans
            s["label"].append(idx)
            s["start"].append(start - self.t0)
            s["end"].append(end - self.t0)
            s["id"].append(sid)
            s["parent"].append(parent)
            s["item"].append(self.item)
        else:
            self.dropped += 1

    def _wrapper(self, orig, label, namespace):
        idx = self.index.get(label)
        hook = getattr(self, "_hook_" + label.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            if hook is None:
                tracer._enter(idx)
                try:
                    return orig(*args, **kwargs)
                finally:
                    tracer._exit()
            return hook(orig, namespace, args, kwargs)

        wrapper.__wrapped__ = orig
        return wrapper

    def _timed(self, label, orig, args, kwargs):
        self._enter(self.index[label])
        try:
            return orig(*args, **kwargs)
        finally:
            self._exit()

    # -- install / restore ----------------------------------------------------

    def install(self, lib):
        """Wrap the traced functions of this import of dbakit."""
        self.lib = lib
        self.orig_variables = lib.terms.variables
        self.vector_threshold = getattr(lib.algebra, "_VECTOR_THRESHOLD", 4096)
        self.brute_limit = getattr(lib.fca, "_BRUTE_LIMIT", 12)
        namespaces = [lib.pkg] + [getattr(lib, m) for m in lib.module_names]
        for module, fn, label in TARGETS:
            orig = getattr(getattr(lib, module), fn)
            label = label or f"{module}.{fn}"
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, attr, self._wrapper(orig, label, ns.__name__))
                        self.patches.append((ns, attr, orig))

    def restore(self):
        for ns, attr, orig in reversed(self.patches):
            setattr(ns, attr, orig)
        self.patches = []
        self.distinct_signatures += len(self.signatures)
        self.signatures = set()

    # -- per-function counters ------------------------------------------------

    def _note_algebra(self, alg):
        if id(alg) not in self.item_algebras:
            self.item_algebras[id(alg)] = alg  # kept alive so ids stay unique
            self.algebras_checked += 1
            self.signatures.add(hash(alg.signature()))

    def _hook_algebra_satisfies_equation(self, orig, namespace, args, kwargs):
        alg, equation = args[0], args[1] if len(args) > 1 else kwargs["equation"]
        arity = self.eq_arity.get(id(equation))
        if arity is None:
            k = len(set(self.orig_variables(equation.lhs)) | set(self.orig_variables(equation.rhs)))
            arity = self.eq_arity[id(equation)] = (equation, k)
        self.sat_calls += 1
        if namespace.endswith(".search"):
            self.count["search.leaf_checks"] += 1
        path = "numpy" if alg.n ** arity[1] > self.vector_threshold else "scalar"
        return self._timed(f"{SAT}.{path}", orig, args, kwargs)

    def _hook_algebra_check_suite(self, orig, namespace, args, kwargs):
        self._note_algebra(args[0])
        before = self.sat_calls
        result = self._timed("algebra.check_suite", orig, args, kwargs)
        self.suite_calls += 1
        self.suite_hits += self.sat_calls == before
        return result

    def _hook_algebra_check_identity_catalog(self, orig, namespace, args, kwargs):
        self._note_algebra(args[0])
        return self._timed("algebra.check_identity_catalog", orig, args, kwargs)

    def _hook_fca_enumerate_pairs(self, orig, namespace, args, kwargs):
        ctx = args[0]
        brute = ctx.n_objects + ctx.n_attributes <= self.brute_limit
        self.count["fca.enumerate_pairs." + ("brute_calls" if brute else "generated_calls")] += 1
        result = self._timed("fca.enumerate_pairs", orig, args, kwargs)
        self.count["fca.enumerate_pairs.pairs"] += len(result)
        return result

    def _hook_representation_enumerate_primary(self, orig, namespace, args, kwargs):
        result = self._timed("representation.enumerate_primary", orig, args, kwargs)
        self.count["representation.enumerate_primary.found"] += len(result)
        return result

    def _hook_representation_closed_set_family(self, orig, namespace, args, kwargs):
        result = self._timed("representation.closed_set_family", orig, args, kwargs)
        self.count["representation.closed_set_family.family_size"] += len(result)
        return result

    def _hook_search_enumerate_algebras(self, orig, namespace, args, kwargs):
        spec = args[0]
        visitor = args[1] if len(args) > 1 else kwargs.get("visitor")
        first = []
        start = time.perf_counter()

        def timing_visitor(alg):
            if not first:
                first.append(time.perf_counter() - start)
            if visitor is not None:
                visitor(alg)

        result = self._timed("search.enumerate_algebras", orig, (spec, timing_visitor), {})
        self.count["search.enumerate_algebras.candidates"] += result.candidates
        self.count["search.enumerate_algebras.models"] += result.models
        self.first_model += first
        return result

    def _hook_logic_search_proof(self, orig, namespace, args, kwargs):
        result = self._timed("logic.search_proof", orig, args, kwargs)
        self.proof_calls += 1
        self.proofs_found += result is not None
        return result

    def _hook_fileformats_parse_algebra(self, orig, namespace, args, kwargs):
        text = args[0] if args else kwargs["text"]
        self.count["fileformats.parse_algebra.bytes"] += len(text.encode("utf-8"))
        return self._timed("fileformats.parse_algebra", orig, args, kwargs)

    # -- results --------------------------------------------------------------

    def metrics(self):
        out = {}
        for i, label in enumerate(self.labels):
            if not label.startswith("cli."):
                out[f"{label}.calls"] = self.calls[i]
            out[f"{label}.self_s"] = self.self_s[i]
        c = dict(self.count)
        c["algebra.check_suite.hit_ratio"] = self.suite_hits / max(self.suite_calls, 1)
        c["algebra.distinct_signature_ratio"] = (
            self.distinct_signatures / max(self.algebras_checked, 1))
        c["search.model_ratio"] = (c["search.enumerate_algebras.models"]
                                   / max(c["search.enumerate_algebras.candidates"], 1))
        c["search.first_model_s"] = sum(self.first_model) / max(len(self.first_model), 1)
        c["logic.proved_ratio"] = self.proofs_found / max(self.proof_calls, 1)
        out.update(c)
        return out

    def write(self, path):
        """Span records as arrays, with the label table; returns the span count."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, labels=np.array(self.labels),
                            **{k: np.frombuffer(v, dtype=v.typecode) if len(v) else
                               np.zeros(0, dtype=v.typecode) for k, v in self.spans.items()})
        return len(self.spans["id"])
