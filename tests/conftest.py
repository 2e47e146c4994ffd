"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def every_product_split(monkeypatch):
    """gemfm.model._csr_dense splits every product it takes across its two threads,
    whatever the product's size and however many CPUs the process may use."""
    monkeypatch.setattr("gemfm.model._SPLIT_WORK", 0)
    monkeypatch.setattr("gemfm.model._cpus", lambda: 2)
