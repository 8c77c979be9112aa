"""The model families of ``refute --models``: ``fixtures``, ``contexts:GxM``
(the protoconcept algebras of the contexts up to GxM) and ``search:N`` (the
DBA23 models of size N), each built as it is read and kept per process, so
later readers get the same algebras, their verdict records and stacks.
``_FAMILIES`` keeps them in the store class of the verdict records: a
contexts family is charged its counted cells, every family at least a
quarter of ``MAX_MODEL_CELLS``, so at most four are kept."""

from __future__ import annotations

import threading

from .algebra import _LRU
from .errors import BudgetError, ParseError
from .fca import _generated_pairs, all_contexts, protoconcept_algebra
from .fixtures import builtin_fixtures
from .search import SearchSpec, iter_algebras

# ``contexts:GxM`` is refused past this many table cells, n**2 summed over
# its n-element algebras and counted from the pairs, before any table is
# built: 3x4 holds 2.93M; 2x6, 4x4 and 1x8 pass the limit.  The kept
# families are charged at most this many cells in all.
MAX_MODEL_CELLS = 1 << 22
# ``search:N`` reads the DBA23 models of size N as the refuter needs them,
# but a goal with no countermodel reads all of them.  On a 2-core Intel
# Xeon (Python 3.11) size 4 takes 0.7 s, size 5 (3,845 models) 20-26 s.
MAX_MODEL_SEARCH_SIZE = 5


class _Family:
    """The (name, algebra) entries of one model source, built lazily from its
    one generator and kept: each iteration yields the entries built so far,
    then advances the generator under a lock, so that threads never run it
    at once and a later iteration reads on where the furthest one stopped.
    A build that raises is raised again to every reader that needs a further
    entry, and the family leaves ``_FAMILIES``: it is never kept truncated."""

    def __init__(self, key, entries):
        self.key = key
        self._entries = entries  # None once exhausted
        self._built = []
        self._error = None
        self._lock = threading.Lock()

    def __iter__(self):
        built, i = self._built, 0
        while True:
            while i < len(built):  # a list read is atomic: no lock
                yield built[i]
                i += 1
            with self._lock:
                if i == len(built) and not self._extend():
                    return

    def _extend(self) -> bool:
        """Build one more entry (under the lock); False when there is none."""
        if self._error is not None:
            raise self._error
        if self._entries is None:
            return False
        try:
            self._built.append(next(self._entries))
        except StopIteration:
            self._entries = None
            return False
        except BaseException as exc:
            self._error = exc
            _FAMILIES.drop(self.key, self)
            raise
        return True


# by canonical spec
_FAMILIES = _LRU(MAX_MODEL_CELLS, MAX_MODEL_CELLS // 4)


def _family(key, make, count=lambda: 0):
    """The kept family of key, else one on ``make()``, charged ``count()``
    cells, counted before any lock is taken; nothing is kept if either
    raises."""
    # a thread that counted too gets the family kept first
    return _FAMILIES.get(key) or _FAMILIES.put(key, _Family(key, make()), count())


def _contexts(g: int, m: int):
    return (c for ng in range(1, g + 1) for nm in range(1, m + 1)
            for c in all_contexts(ng, nm))


def _context_cells(spec: str, g: int, m: int) -> int:
    """The table cells of the family, counted in family order; a BudgetError
    as soon as the count passes ``MAX_MODEL_CELLS``."""
    cells = 0
    for ctx in _contexts(g, m):
        cells += len(_generated_pairs(ctx, "protoconcept")) ** 2
        if cells > MAX_MODEL_CELLS:
            raise BudgetError(f"--models {spec} gives more table cells "
                              f"than the limit of {MAX_MODEL_CELLS}")
    return cells


def _context_models(g: int, m: int):
    for i, ctx in enumerate(_contexts(g, m)):
        yield f"context-{i}", protoconcept_algebra(ctx).algebra


def _search_models(size: int):
    models = iter_algebras(SearchSpec(size=size, require="DBA23"))  # checks the spec
    return ((f"model-{i}", alg) for i, alg in enumerate(models))


def model_set(spec: str) -> _Family:
    """The kept family of ``spec``, checked on every call before any is read."""
    if spec == "fixtures":
        return _family("fixtures", lambda: iter(builtin_fixtures()))
    if spec.startswith("contexts:"):
        shape = spec.split(":", 1)[1]
        try:
            g, m = (int(v) for v in shape.lower().split("x"))
        except ValueError:
            raise ParseError(f"--models contexts:<GxM> malformed: {spec!r}") from None
        if g < 1 or m < 1:
            raise ParseError(f"--models contexts:<GxM> needs G, M >= 1: {spec!r}")
        return _family(("contexts", g, m), lambda: _context_models(g, m),
                       lambda: _context_cells(spec, g, m))
    if spec.startswith("search:"):
        try:
            size = int(spec.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"--models search:<N> malformed: {spec!r}") from None
        if size > MAX_MODEL_SEARCH_SIZE:
            raise BudgetError(f"--models {spec} searches models of size {size}, "
                              f"more than the limit of {MAX_MODEL_SEARCH_SIZE}")
        return _family(("search", size), lambda: _search_models(size))
    raise ParseError(f"unknown model source {spec!r}")
