"""Fixtures shared by the test modules."""

import importlib

import pytest


@pytest.fixture
def every_product_split(monkeypatch):
    """gemfm.model._csr_dense splits every product it takes, and gemfm.train.optimizer_step
    every block's row update, across the two threads, whatever the size and however many
    CPUs the process may use."""
    monkeypatch.setattr("gemfm.model._SPLIT_WORK", 0)
    # the module: the package exports the train function under the same name
    monkeypatch.setattr(importlib.import_module("gemfm.train"), "_SPLIT_ENTRIES", 0)
    monkeypatch.setattr("gemfm.model._cpus", lambda: 2)
