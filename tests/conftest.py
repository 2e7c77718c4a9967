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
