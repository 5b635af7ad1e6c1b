"""Shared pytest fixtures for the LightMamba reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mamba import InitConfig, Mamba2Model, get_preset


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end test")


@pytest.fixture(scope="session")
def tiny_config():
    """The smallest structurally-complete Mamba2 configuration."""
    return get_preset("mamba2-tiny")


@pytest.fixture(scope="session")
def small_config():
    return get_preset("mamba2-small")


@pytest.fixture(scope="session")
def tiny_model(tiny_config):
    """A deterministic tiny model with the default outlier profile."""
    return Mamba2Model.from_config(tiny_config, InitConfig(seed=0))


@pytest.fixture(scope="session")
def small_model(small_config):
    return Mamba2Model.from_config(small_config, InitConfig(seed=1))


@pytest.fixture()
def rng():
    """A per-test deterministic random generator."""
    return np.random.default_rng(1234)
