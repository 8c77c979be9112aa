"""Fixtures shared by the test modules."""

import pytest

from dbakit import algebra, logic, search


@pytest.fixture()
def fresh_records(monkeypatch):
    """An empty verdict store (``algebra._FACTS``, a new ``_LRU`` of the
    same bound and floor) for the test, dropped after it: what the test
    counts or inspects starts from no kept record, and no record the test
    fills reaches another test.  Returns the store."""
    store = algebra._LRU(algebra._FACTS.bound, algebra._FACTS.floor)
    monkeypatch.setattr(algebra, "_FACTS", store)
    return store


@pytest.fixture()
def fresh_stacks(monkeypatch):
    """An empty store of the refuter's stacks (``logic._STACKS``, a new
    ``_LRU`` of the same bound and floor) for the test, dropped after it:
    what the test counts starts from no kept stack, whatever ran before.
    Returns the store."""
    store = algebra._LRU(logic._STACKS.bound, logic._STACKS.floor)
    monkeypatch.setattr(logic, "_STACKS", store)
    return store


@pytest.fixture()
def plain_search(monkeypatch):
    """The model search without its implied identities (``search._IMPLIED``
    emptied for the test): it watches the required suite's axioms alone, as
    a test needs that checks what those identities assume, such as DCORE13
    and DBA23 having the same models, or that pins the plain traversal."""
    monkeypatch.setattr(search, "_IMPLIED", ())
