"""Shared fixtures: tiny datasets and clusters reused across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import LAPTOP, PERLMUTTER, VirtualCluster
from repro.graph import load_dataset


@pytest.fixture(scope="session")
def tiny_products():
    """A small ogbn-products synthetic shared by many tests (read-only)."""
    return load_dataset("ogbn-products", n_nodes=600, feature_dim=24, seed=3)


@pytest.fixture(scope="session")
def tiny_road():
    """A small europe_osm synthetic (banded structure)."""
    return load_dataset("europe_osm", n_nodes=4096, seed=5)


@pytest.fixture()
def cluster8():
    return VirtualCluster(8, PERLMUTTER)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
