"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.machine import frontier_like, generic_cluster, single_node
from repro.vmpi import VirtualWorld


@pytest.fixture
def small_machine():
    """A 4-node x 4-rank commodity cluster."""
    return generic_cluster(n_nodes=4, ranks_per_node=4)


@pytest.fixture
def small_world(small_machine):
    """A 16-rank world on the small machine."""
    return VirtualWorld(small_machine)


@pytest.fixture
def one_node_world():
    """An 8-rank single-node world (all intra-node)."""
    return VirtualWorld(single_node(ranks=8))


@pytest.fixture
def frontier32():
    """The Frontier-like 32-node preset used by the headline benchmark."""
    return frontier_like(n_nodes=32)


@pytest.fixture(scope="session")
def golden_generator():
    """``tests/goldens/generate.py`` loaded as a module (it is a script
    beside the goldens, not a package member): the golden tests rerun
    exactly the code that wrote the committed files."""
    path = Path(__file__).resolve().parent / "goldens" / "generate.py"
    spec = importlib.util.spec_from_file_location("golden_generate", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod
