"""HTTP benchmark of the bx example repository, server in its own process.

    python3 perfbench/run.py --workload read-zipf --seed 1 --seconds 10 \\
        --trace 0

Run from the root of a checkout.  One run:

1. builds the corpus and the per-client request streams from ``--seed``
   (see ``workloads.py``);
2. sets the system up ``SETUPS`` times -- boot ``python -m
   repro.repository.server`` over a fresh SQLite database, bulk-load the
   corpus over HTTP, warm every client -- keeping the last set-up;
3. releases the closed-loop clients for ``--seconds`` and checks every
   answer, then the final state of the repository;
4. prints one JSON object as the last line of standard output.

With ``--trace 0`` the metrics are the end-to-end ones: median and p99
request latency, throughput, and the median set-up time.  With
``--trace 1`` the same traffic runs with request spans on, and the
metrics are per layer (see ``layers.py``); spans are written to
``.perfbench-work/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import statistics
import sys

import stack

#: Set-ups per run; set-up time is reported as their median.
SETUPS = 5
#: Untimed ops each client runs before the window opens.
WARM_OPS = 300


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def window_metrics(session, seconds: float) -> dict:
    """Latency percentiles and throughput of the timed window.

    The window is cut into one-second slices (by completion time); each
    figure is computed per slice and reported as the median over the
    slices, so a burst of load from elsewhere on the machine that spoils
    a few slices does not move it.  Requests still in flight at the
    deadline fall outside every slice.
    """
    count = max(1, round(seconds))
    width = seconds / count
    slices: list[list[float]] = [[] for _ in range(count)]
    for result in session.results:
        for end, latency in zip(result.ends, result.latencies):
            index = int((end - session.started) / width)
            if index < count:
                slices[index].append(latency)
    if not all(slices):
        raise RuntimeError("a slice of the window saw no request complete")
    for samples in slices:
        samples.sort()
    return {
        "requests": sum(len(samples) for samples in slices),
        "p50_ms": statistics.median(
            percentile(samples, 0.50) for samples in slices) * 1e3,
        "p99_ms": statistics.median(
            percentile(samples, 0.99) for samples in slices) * 1e3,
        "throughput_ops_s": statistics.median(
            len(samples) / width for samples in slices),
    }


def check_final_state(url: str, streams, corpus_size: int) -> list[str]:
    """The repository holds exactly what the clients wrote, no more."""
    from repro.repository.client import HTTPBackend

    added = [entry for stream in streams
             for entry in getattr(stream, "added", ())]
    failures = []
    checker = HTTPBackend(url)
    try:
        try:
            served = checker.get_many([entry.identifier for entry in added])
        except Exception as error:  # noqa: BLE001 - counted, reported
            served = []
            failures.append(f"final read of the added entries: "
                            f"{type(error).__name__}: {error}")
        for entry, got in zip(added, served):
            if got != entry:
                failures.append(f"final {entry.identifier}: the stored "
                                f"entry differs from the one sent")
        count = checker.entry_count()
        if count != corpus_size + len(added):
            failures.append(f"final entry count {count}, expected "
                            f"{corpus_size + len(added)}")
    finally:
        checker.close()
    return failures


def main(argv: list[str] | None = None) -> int:
    stack.check_checkout()
    import drive
    import workloads
    from repro.harness.workloads import corpus_digest

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    corpus = workloads.make_corpus(args.seed)
    digest = corpus_digest(workloads.corpus_spec(args.seed))
    # The corpus lives for the whole run: keep the collector from
    # rescanning it, which would show as client-side pauses.
    gc.freeze()
    tracer = drive.Tracer() if args.trace else drive.NullTracer()
    results, setup_seconds = [], []
    server = session = None
    try:
        for attempt in range(SETUPS):
            streams = workloads.streams(args.workload, args.seed, corpus)
            keep = attempt == SETUPS - 1

            def warm_up(url, streams=streams, keep=keep):
                session = drive.Session(
                    url, streams, warm_ops=WARM_OPS,
                    tracer=tracer if keep else drive.NullTracer())
                session.wait_warm()
                return session

            server, session, seconds = stack.set_up(corpus, warm_up)
            setup_seconds.append(seconds)
            results.extend(session.results)
            if not keep:
                session.close()
                server.remove()

        if args.trace:
            import layers
            before = layers.server_stats(server.url)
        session.measure(args.seconds)
        failures = [failure for result in results
                    for failure in result.failures]
        failures += check_final_state(server.url, streams, len(corpus))

        window = window_metrics(session, args.seconds)
        if args.trace:
            metrics = {"traced_p50_ms": (window["p50_ms"], "ms")}
            after = layers.server_stats(server.url)
            counters = layers.counter_metrics(before, after)
            spans = layers.span_metrics(tracer.collect())
            keys, expected = workloads.ladder_reads(
                args.workload, args.seed, corpus, layers.LADDER_READS)
            server.stop()
            rows = layers.ladder(server.db_path, keys, expected)
            tracer.write(stack.WORK / f"trace-{args.workload}-"
                                      f"{args.seed}.jsonl")
            metrics.update((name, (value, "1/get"))
                           for name, value in counters.items())
            metrics.update((name, (value, "us"))
                           for name, value in {**spans, **rows}.items())
        else:
            metrics = {
                "p50_ms": (window["p50_ms"], "ms"),
                "p99_ms": (window["p99_ms"], "ms"),
                "throughput_ops_s": (window["throughput_ops_s"], "1/s"),
                "setup_s": (statistics.median(setup_seconds), "s"),
            }
    finally:
        if server is not None:
            server.remove()

    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: corpus digest {digest}, "
          f"{window['requests']} requests timed, set-ups "
          f"{', '.join(f'{s:.3f}s' for s in setup_seconds)}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(result.attempted for result in results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
