"""Rule modules for the repro static analyzer.

Importing this package registers every built-in rule with the engine
registry (each module's ``@rule`` decorator runs at import time).
"""

from __future__ import annotations

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    codecjson,
    determinism,
    exceptions,
    locks,
    responses,
    retries,
)

__all__ = [
    "codecjson",
    "determinism",
    "exceptions",
    "locks",
    "responses",
    "retries",
]
