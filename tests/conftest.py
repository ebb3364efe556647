"""Shared fixtures for the bx-repository test suite."""

from __future__ import annotations

import logging
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


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "internal_error: the test provokes an untyped 500 on purpose, so "
        "the server may log 'internal error' during it")


class _InternalErrors(logging.Handler):
    """Collects the server's "internal error" records (untyped 500s)."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if "internal error" in message:
            self.messages.append(message)


@pytest.fixture(autouse=True)
def no_internal_error(request):
    """Fail any test during which the server logs an untyped 500.

    pytest captures log records, so a 500 inside a passing test would
    otherwise print nothing.  Tests that provoke one on purpose carry
    the ``internal_error`` marker.
    """
    handler = _InternalErrors()
    logger = logging.getLogger("repro.repository.server")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    if handler.messages and not request.node.get_closest_marker(
            "internal_error"):
        pytest.fail("the server logged an internal error: "
                    + "; ".join(handler.messages))
