"""Shared fixtures for the bx-repository test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.laws import CheckConfig


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; tests that need different streams reseed."""
    return random.Random(0xB0)


@pytest.fixture
def quick_config() -> CheckConfig:
    """A fast checking configuration for unit tests."""
    return CheckConfig(trials=80, seed=7, shrink=False)


@pytest.fixture
def thorough_config() -> CheckConfig:
    """A heavier configuration for the flagship property experiments."""
    return CheckConfig(trials=300, seed=7)
