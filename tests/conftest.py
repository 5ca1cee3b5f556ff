"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pytest

from repro.geometry.transforms import Similarity
from repro.patterns.library import named_pattern


_L3_ENV = pytest.StashKey[pytest.MonkeyPatch]()


def pytest_configure(config):
    """Point the L3 disk cache at a fresh temporary directory, for the
    whole run and every subprocess a test starts: a run must not write
    ``./.repro-cache`` or read what an earlier run left there.  This
    happens before collection, since some test modules build catalog
    groups at import.  Tests that call ``disk.configure()`` to restore
    the default land here too: it re-resolves from the environment."""
    from repro.perf import disk

    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_CACHE_DIR", tempfile.mkdtemp(prefix="repro-l3-"))
    config.stash[_L3_ENV] = patch
    disk.configure()


def pytest_unconfigure(config):
    from repro.perf import disk

    patch = config.stash.get(_L3_ENV, None)
    if patch is None:
        return
    shutil.rmtree(os.environ["REPRO_CACHE_DIR"], ignore_errors=True)
    patch.undo()
    disk.configure()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def cube():
    return named_pattern("cube")


@pytest.fixture
def octagon():
    return named_pattern("octagon")


@pytest.fixture
def square_antiprism():
    return named_pattern("square_antiprism")


@pytest.fixture
def random_similarity(rng) -> Similarity:
    return Similarity.random(rng)


def generic_cloud(n: int, seed: int = 0) -> list[np.ndarray]:
    """A generic (asymmetric) point cloud for tests."""
    gen = np.random.default_rng(seed)
    return [gen.normal(size=3) for _ in range(n)]
