"""Fixtures shared by the timed tests."""

import gc

import pytest


@pytest.fixture
def frozen_heap():
    """Collect the test run's heap once and freeze it (`gc.freeze`), so that
    each `gc.collect()` kept outside a timed call scans only what this test
    made, not every earlier test's objects."""
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.fixture(autouse=True)
def cold_diagonals(monkeypatch):
    """Each test starts with an empty table of diagonal subdivisions, so a
    test that empties the cone and geometry tables to count cold work sees
    the work of every subdivision it asks for, not a result stored earlier."""
    from logfan import conecomplex
    monkeypatch.setattr(conecomplex, "_DIAGONALS", {})
