"""Rule 4 — codec discipline.

``repro.repository.codec`` owns the canonical entry wire form (key
order, version strings, digest input); its memo layers key on the exact
encoded bytes.  A stray ``json.dumps`` of an entry elsewhere silently
forks the canonical form — digests stop matching and memos stop
deduplicating.  So inside ``repro/repository/``, the ``json`` module is
callable only from the declared codec/wire modules; everything else
goes through ``encode_entry``/``decode_entry``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ParsedFile, Project, dotted_name, rule

#: Modules allowed to touch ``json`` directly: the codec itself plus the
#: wire layers that serialise non-entry payloads (request envelopes).
_ALLOWED_FILES = frozenset({"codec.py", "server.py", "client.py"})
_JSON_CALLS = frozenset({"json.dumps", "json.loads", "json.dump", "json.load"})

Found = Iterator[tuple[ParsedFile, int, str]]


@rule("codec-discipline")
def check(project: Project) -> Found:
    """inside repro/repository/, json encode/decode happens only in
    codec.py and the declared wire modules."""
    for parsed in project.files:
        if "repository" not in parsed.parts[:-1]:
            continue
        if parsed.name in _ALLOWED_FILES or parsed.tree is None:
            continue
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                yield (
                    parsed,
                    node.lineno,
                    "from-import of json outside the codec/wire modules; "
                    "use repro.repository.codec for entry payloads",
                )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _JSON_CALLS:
                    yield (
                        parsed,
                        node.lineno,
                        f"{name}() outside the codec/wire modules; entry "
                        "payloads must round-trip through "
                        "repro.repository.codec to keep the canonical "
                        "form (and its digests/memos) unforked",
                    )
