"""Fixtures shared by the test modules."""

import pytest

from dbakit import algebra


@pytest.fixture()
def fresh_records(monkeypatch):
    """An empty verdict store (``algebra._FACTS``) for the test, dropped
    after it: what the test counts or inspects starts from no kept record,
    and no record the test fills reaches another test."""
    monkeypatch.setattr(algebra, "_FACTS", algebra._Store())
