"""The curated repository of bx examples: the paper's primary contribution.

Template (§3), entries, validation, versioning (§3/§5.2), the three-level
curation workflow (§5.1), versioned storage with stable identifiers
(§5.2) behind pluggable backends and the :class:`RepositoryService`
facade, search, citations, markup export, the §5.4 wiki-sync bx, and the
glossary the Properties field links to.
"""

from repro.repository.backends import (
    BACKEND_SCHEMES,
    AntiEntropyReport,
    FileBackend,
    MemoryBackend,
    ReplicatedBackend,
    ShardedBackend,
    SQLiteBackend,
    StorageBackend,
    create_backend,
    shard_index,
)
from repro.repository.codec import (
    DecodeMemo,
    decode_entry,
    encode_entry,
)
from repro.repository.concurrency import ReadWriteLock
from repro.repository.faults import (
    FaultInjector,
    FlakyBackend,
    InjectedFault,
    SlowBackend,
)
from repro.repository.render_cache import RenderCache
from repro.repository.citation import (
    REPOSITORY_URL,
    archive_manuscript,
    cite_archive,
    cite_entry,
    cite_repository,
    entry_url,
)
from repro.repository.curation import (
    CuratedRepository,
    CurationPolicy,
    Role,
    User,
)
from repro.repository.entry import (
    Artefact,
    Comment,
    ExampleEntry,
    ModelDescription,
    PropertyClaim,
    Reference,
    RestorationSpec,
    Variant,
    slugify,
)
from repro.repository.export import (
    render_glossary_wikidot,
    render_markdown,
    render_repository_markdown,
    render_wikidot,
)
from repro.repository.glossary import (
    GlossaryTerm,
    define,
    glossary_terms,
    known_property_names,
)
from repro.repository.query import (
    Q,
    Query,
    QueryPlan,
    QueryResult,
    QueryStats,
    plan,
    plan_from_dict,
    plan_to_dict,
    query_from_dict,
    query_to_dict,
    result_from_dict,
    result_to_dict,
    stats_from_dict,
    stats_to_dict,
)
from repro.repository.resilience import (
    CircuitBreaker,
    Deadline,
    HealthProbe,
    RetryBudget,
    RetryPolicy,
    current_deadline,
    deadline_scope,
)
from repro.repository.search import SearchHit, SearchIndex, tokenize
from repro.repository.service import (
    API_METHODS,
    RepositoryAPI,
    RepositoryEvent,
    RepositoryService,
)
from repro.repository.aservice import AsyncRepositoryService
from repro.repository.client import HTTPBackend
from repro.repository.server import RepositoryServer
from repro.repository.template import (
    TEMPLATE,
    EntryType,
    FieldSpec,
    field_names,
    field_spec,
)
from repro.repository.validation import (
    ValidationReport,
    require_valid,
    validate_entry,
)
from repro.repository.versioning import Version, VersionHistory
from repro.repository.wiki_sync import (
    WikiSyncLens,
    apply_wiki_edit,
    entry_space,
    make_wiki_sync_lens,
    normalise_entry,
    parse_wikidot,
    render_wiki_pages,
    wikidot_space,
)

__all__ = [
    # template
    "EntryType", "FieldSpec", "TEMPLATE", "field_spec", "field_names",
    # entry
    "ExampleEntry", "ModelDescription", "RestorationSpec", "PropertyClaim",
    "Variant", "Reference", "Comment", "Artefact", "slugify",
    # validation
    "ValidationReport", "validate_entry", "require_valid",
    # versioning
    "Version", "VersionHistory",
    # curation
    "Role", "User", "CurationPolicy", "CuratedRepository",
    # backends
    "StorageBackend", "MemoryBackend", "FileBackend", "SQLiteBackend",
    "BACKEND_SCHEMES", "create_backend",
    # scaling layer
    "ShardedBackend", "shard_index", "ReplicatedBackend",
    "AntiEntropyReport", "ReadWriteLock",
    # fault injection (the soak/chaos seam)
    "FaultInjector", "FlakyBackend", "InjectedFault", "SlowBackend",
    # resilience (deadlines, retries, breakers, probes)
    "Deadline", "deadline_scope", "current_deadline",
    "RetryBudget", "RetryPolicy", "CircuitBreaker", "HealthProbe",
    # service facade
    "RepositoryService", "RepositoryEvent", "RepositoryAPI", "API_METHODS",
    # the serving layer: async facade + HTTP server/client
    "AsyncRepositoryService", "RepositoryServer", "HTTPBackend",
    # the read path: codec + render cache
    "encode_entry", "decode_entry", "DecodeMemo", "RenderCache",
    # the unified query API
    "Q", "Query", "QueryPlan", "QueryResult", "QueryStats", "plan",
    # the query wire codec (what POST /query bodies carry)
    "query_to_dict", "query_from_dict", "plan_to_dict", "plan_from_dict",
    "result_to_dict", "result_from_dict", "stats_to_dict", "stats_from_dict",
    # search
    "SearchIndex", "SearchHit", "tokenize",
    # citation
    "REPOSITORY_URL", "cite_entry", "cite_repository", "cite_archive",
    "archive_manuscript", "entry_url",
    # export
    "render_wikidot", "render_markdown", "render_glossary_wikidot",
    "render_repository_markdown",
    # wiki sync
    "parse_wikidot", "normalise_entry", "entry_space", "wikidot_space",
    "WikiSyncLens", "make_wiki_sync_lens", "apply_wiki_edit",
    "render_wiki_pages",
    # glossary
    "GlossaryTerm", "glossary_terms", "known_property_names", "define",
]
