"""Plain-text report rendering for EXPERIMENTS.md regeneration.

Benchmarks and the experiment scripts print fixed-width tables through
these helpers so that EXPERIMENTS.md's measured sections can be
regenerated verbatim by re-running the harness.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.laws import CheckReport

__all__ = [
    "text_table",
    "law_report_table",
    "claims_table",
    "soak_report_table",
]


def text_table(headers: Sequence[str],
               rows: Iterable[Sequence[Any]]) -> str:
    """Render a fixed-width table with a header rule."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths,
                                                strict=False)).rstrip()

    lines = [format_row(headers),
             format_row(["-" * width for width in widths])]
    lines.extend(format_row(row) for row in materialised)
    return "\n".join(lines)


def law_report_table(reports: Iterable[CheckReport]) -> str:
    """One row per (subject, law) across several check reports."""
    rows = []
    for report in reports:
        for result in report.results:
            rows.append((report.subject, result.law, result.status.value,
                         "exhaustive" if result.exhaustive
                         else f"{result.trials} trials"))
    return text_table(("subject", "law", "status", "mode"), rows)


def soak_report_table(report: Any) -> str:
    """Human-readable digest of one soak run (a ``SoakReport``).

    Typed loosely to keep this module free of a harness→soak import
    cycle; anything with the ``SoakReport`` shape renders.  The same
    numbers travel machine-readably as ``SoakReport.to_json()``, so
    this table is for logs and eyeballs only.
    """
    summary = text_table(
        ("stack", "seconds", "ops", "ops/s", "faults", "checks",
         "violations"),
        [(report.stack, f"{report.seconds:.1f}", report.ops_total,
          f"{report.throughput_ops:.0f}", len(report.faults),
          report.invariant_checks, len(report.violations))])
    latency = text_table(
        ("op", "count", "p50", "p99"),
        [(name, int(stats["count"]), f"{stats['p50_ms']:.2f} ms",
          f"{stats['p99_ms']:.2f} ms")
         for name, stats in sorted(report.latencies.items())])
    blocks = [summary, "", latency]
    if report.faults:
        blocks += ["", text_table(
            ("fault", "at", "recovery", "fired", "details"),
            [record.row() for record in report.faults])]
    if report.violations:
        blocks += ["", "violations:"]
        blocks += [f"  - {violation}" for violation in report.violations]
    return "\n".join(blocks)


def claims_table(report: CheckReport) -> str:
    """Claim-vs-measured table for one verify_property_claims report."""
    rows = []
    for result in report.results:
        agreed = {"passed": "agrees", "failed": "DISAGREES",
                  "skipped": "unchecked"}[result.status.value]
        rows.append((result.law, result.note or "-", agreed))
    return text_table(("property claim", "detail", "verdict"), rows)
