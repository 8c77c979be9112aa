"""Fixtures shared by the test modules."""

import pytest

from dbakit import algebra


@pytest.fixture()
def fresh_records(monkeypatch):
    """An empty verdict store (``algebra._FACTS``, a new ``_LRU`` of the
    same bound and floor) for the test, dropped after it: what the test
    counts or inspects starts from no kept record, and no record the test
    fills reaches another test.  Returns the store."""
    store = algebra._LRU(algebra._FACTS.bound, algebra._FACTS.floor)
    monkeypatch.setattr(algebra, "_FACTS", store)
    return store
