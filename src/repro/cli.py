"""Command-line interface: regenerate paper experiments without pytest.

Usage::

    python -m repro.cli table1   [--datasets webspam corel ...] [--n 12000]
    python -m repro.cli figure2  --dataset webspam [--n 12000] [--queries 50]
    python -m repro.cli figure3  [--n 12000]
    python -m repro.cli profile  --dataset corel [--n 5000]
    python -m repro.cli recall   --dataset corel [--n 12000]
    python -m repro.cli build    --dataset corel --out idx/ [--spec spec.json]
    python -m repro.cli serve    --dataset corel [--shards 2] [--cache-size 512]
    python -m repro.cli serve    --index idx/ [--workers 4] [--inflight 4]
    python -m repro.cli serve    --index idx/ --stats-interval 10 [--stats-log stats.jsonl]
    python -m repro.cli serve    --index idx/ --connect 127.0.0.1:7401 --connect 127.0.0.1:7402
    python -m repro.cli shard-serve --artifact idx/ [--shards 0,2] [--port 7401]
    python -m repro.cli loadgen  --index idx/ --rate 200 --duration 5 [--json out.json]

Every experiment command prints the same text tables the
``benchmarks/bench_*.py`` files emit, so results can be generated in CI
logs or piped to files; performance is measured by the repo benchmark
(``benchmarks/perf/run.py``), not from here.  ``build`` and ``serve``
are spec-driven (:mod:`repro.api`): ``build`` assembles an :class:`~repro.api.Index` from an
:class:`~repro.api.IndexSpec` — from a JSON file via ``--spec``,
otherwise from the flags — and persists it; ``serve`` speaks the
:mod:`repro.service.stream` JSON-lines protocol on stdin/stdout over a
freshly built or reopened index.

``shard-serve`` exposes a saved artifact's shards over TCP (a
standalone :class:`~repro.service.shard_server.ShardServer` process);
``serve --connect HOST:PORT[,HOST:PORT]`` (one flag per worker slot,
commas separating replicas of that slot) serves through such servers
instead of spawning local workers.  ``loadgen`` offers open-loop
Poisson load against a saved or connected index and reports tail
latency (:mod:`repro.service.loadgen`).
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from repro.datasets import corel_like, covertype_like, mnist_like, webspam_like
from repro.evaluation import (
    figure2_experiment,
    figure3_experiment,
    format_figure2,
    format_figure3,
    format_recall,
    recall_experiment,
    table1_experiment,
)
from repro.evaluation.profile import distance_profile, hardness_profile, suggest_radii
from repro.evaluation.report import format_table, format_table1

_DATASETS = {
    "webspam": webspam_like,
    "covertype": covertype_like,
    "corel": corel_like,
    "mnist": mnist_like,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=12_000, help="dataset size")
    parser.add_argument("--queries", type=int, default=50, help="query-set size")
    parser.add_argument("--tables", type=int, default=50, help="L, number of hash tables")
    parser.add_argument("--seed", type=int, default=0, help="master seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the Hybrid LSH (EDBT 2017) experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table1 = sub.add_parser("table1", help="Table 1: HLL cost and error")
    p_table1.add_argument(
        "--datasets", nargs="+", choices=sorted(_DATASETS), default=sorted(_DATASETS)
    )
    _add_common(p_table1)

    p_fig2 = sub.add_parser("figure2", help="Figure 2: CPU time vs radius")
    p_fig2.add_argument("--dataset", choices=sorted(_DATASETS), required=True)
    p_fig2.add_argument("--repeats", type=int, default=2)
    _add_common(p_fig2)

    p_fig3 = sub.add_parser("figure3", help="Figure 3: output sizes and %%LS calls")
    _add_common(p_fig3)

    p_profile = sub.add_parser("profile", help="distance/hardness diagnostics")
    p_profile.add_argument("--dataset", choices=sorted(_DATASETS), required=True)
    _add_common(p_profile)

    p_recall = sub.add_parser(
        "recall", help="recall vs radius (the paper's omitted experiment)"
    )
    p_recall.add_argument("--dataset", choices=sorted(_DATASETS), required=True)
    _add_common(p_recall)

    p_build = sub.add_parser(
        "build", help="build a spec-driven index over a dataset and save it"
    )
    p_build.add_argument(
        "--dataset", choices=sorted(_DATASETS), default="corel",
        help="synthetic dataset stand-in to index",
    )
    p_build.add_argument("--out", required=True, metavar="DIR",
                         help="directory to persist the index into")
    _add_spec_options(p_build)
    _add_common(p_build)

    p_serve = sub.add_parser(
        "serve", help="answer JSON-lines queries on stdin (see repro.service.stream)"
    )
    p_serve.add_argument(
        "--dataset", choices=sorted(_DATASETS), default="corel",
        help="synthetic dataset stand-in to index",
    )
    p_serve.add_argument("--index", metavar="DIR", default=None,
                         help="serve a saved index instead of building one")
    p_serve.add_argument("--batch-size", type=int, default=64,
                         help="micro-batch size for consecutive queries")
    p_serve.add_argument(
        "--workers", type=int, default=None, metavar="W",
        help="worker-pool width for execution='processes' indexes "
             "(default: min(shards, cpu count))",
    )
    p_serve.add_argument(
        "--inflight", type=int, default=1, metavar="B",
        help="in-flight batch window; > 1 enables the concurrent request "
             "loop (reader thread, responses kept in request order)",
    )
    p_serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-op worker reply deadline for execution='processes' "
             "indexes (default: the FaultTolerancePolicy default)",
    )
    p_serve.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="transport-failure retries per worker request (each retry "
             "respawns the worker before re-sending)",
    )
    p_serve.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="ping idle workers every SECONDS to catch hangs between "
             "requests; 0 disables (the default)",
    )
    p_serve.add_argument(
        "--stats-interval", type=float, default=0.0, metavar="SECONDS",
        help="emit a JSONL stats snapshot line every SECONDS (plus one at "
             "shutdown); 0 disables",
    )
    p_serve.add_argument(
        "--stats-log", metavar="PATH", default=None,
        help="append the periodic stats lines to PATH instead of stderr",
    )
    p_serve.add_argument(
        "--allow-partial", action="store_true",
        help="opt every query into degraded answers when shards are "
             "unavailable (per-request \"allow_partial\" can widen but "
             "never narrow this server-level default)",
    )
    p_serve.add_argument(
        "--connect", action="append", default=None, metavar="HOST:PORT[,HOST:PORT]",
        help="serve through standalone shard servers (repro.cli shard-serve) "
             "instead of spawning local workers: one flag per worker slot, "
             "commas separating that slot's replicas; requires --index",
    )
    _add_spec_options(p_serve)
    _add_common(p_serve)

    p_shard = sub.add_parser(
        "shard-serve",
        help="serve a saved artifact's shards over TCP (see serve --connect)",
    )
    p_shard.add_argument(
        "--artifact", required=True, metavar="DIR",
        help="saved execution='processes' index directory to serve from",
    )
    p_shard.add_argument(
        "--shards", default=None, metavar="IDS",
        help="comma-separated shard ids to open (default: all shards)",
    )
    p_shard.add_argument("--host", default="127.0.0.1", help="bind address")
    p_shard.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0: let the OS pick; the chosen port is "
             "printed in the startup JSON line)",
    )

    p_lg = sub.add_parser(
        "loadgen",
        help="open-loop Poisson load against a saved index; tail latency out",
    )
    p_lg.add_argument("--index", required=True, metavar="DIR",
                      help="saved index directory to drive")
    p_lg.add_argument(
        "--connect", action="append", default=None, metavar="HOST:PORT[,HOST:PORT]",
        help="drive through standalone shard servers instead of spawning "
             "local workers (same shape as serve --connect)",
    )
    p_lg.add_argument("--rate", type=float, default=100.0,
                      help="offered load, requests/second")
    p_lg.add_argument("--duration", type=float, default=5.0,
                      help="run length, seconds")
    p_lg.add_argument("--seed", type=int, default=0, help="workload seed")
    p_lg.add_argument("--mode", choices=("radius", "topk"), default="radius",
                      help="query kind to offer")
    p_lg.add_argument("--k", type=int, default=10, help="k for --mode topk")
    p_lg.add_argument("--radius", type=float, default=None,
                      help="radius for --mode radius (default: the index's)")
    p_lg.add_argument(
        "--allow-partial", action="store_true",
        help="opt requests into degraded answers instead of failures when "
             "a whole replica set is down",
    )
    p_lg.add_argument("--concurrency", type=int, default=8,
                      help="driver threads sharing the arrival schedule")
    p_lg.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-op worker reply deadline (FaultTolerancePolicy override)",
    )
    p_lg.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="transport-failure retries per request",
    )
    p_lg.add_argument("--json", metavar="PATH", default=None,
                      help="write the full result document to PATH")
    p_lg.add_argument(
        "--samples", action="store_true",
        help="keep the per-request [arrival, latency] samples in the "
             "output (they dominate the file size)",
    )

    return parser


def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    """Flags that assemble an :class:`~repro.api.IndexSpec`."""
    parser.add_argument("--spec", metavar="JSON", default=None,
                        help="IndexSpec JSON file; its keys override the flags")
    parser.add_argument("--radius", type=float, default=None,
                        help="default query radius (default: the dataset's mid sweep radius)")
    parser.add_argument("--shards", type=int, default=1,
                        help="K > 1 builds a sharded index")
    parser.add_argument("--cache-size", type=int, default=0,
                        help="LRU result-cache capacity (0 disables)")
    parser.add_argument(
        "--ratio", type=float, default=6.0,
        help="beta/alpha cost ratio (0 = calibrate by timing)",
    )
    parser.add_argument(
        "--layout", choices=("dict", "frozen"), default="dict",
        help="bucket storage layout; 'frozen' compacts into CSR arrays "
             "(vectorised serving, mmap-backed persistence)",
    )
    parser.add_argument(
        "--variant", choices=("plain", "multiprobe", "covering"), default="plain",
        help="index variant: 'multiprobe' probes extra buckets per table "
             "(see --probes), 'covering' builds the no-false-negative "
             "Hamming construction (requires a hamming dataset and an "
             "integer radius); both compose with either --layout",
    )
    parser.add_argument(
        "--probes", type=int, default=2, metavar="P",
        help="extra probed buckets per table for --variant multiprobe",
    )
    parser.add_argument(
        "--execution", choices=("threads", "processes"), default="threads",
        help="shard fan-out: 'processes' serves mmap'd frozen shards from "
             "a pool of worker processes (requires --layout frozen)",
    )


def _cmd_table1(args: argparse.Namespace) -> None:
    rows = []
    for name in args.datasets:
        dataset = _DATASETS[name](n=args.n, seed=args.seed)
        rows.append(
            table1_experiment(
                dataset,
                num_queries=args.queries,
                num_tables=args.tables,
                seed=args.seed,
            )
        )
    print(format_table1(rows))


def _cmd_figure2(args: argparse.Namespace) -> None:
    dataset = _DATASETS[args.dataset](n=args.n, seed=args.seed)
    rows = figure2_experiment(
        dataset,
        num_queries=args.queries,
        repeats=args.repeats,
        num_tables=args.tables,
        seed=args.seed,
    )
    print(format_figure2(rows, title=f"Figure 2: {dataset.name} ({dataset.metric})"))


def _cmd_figure3(args: argparse.Namespace) -> None:
    dataset = webspam_like(n=args.n, seed=args.seed)
    rows = figure3_experiment(
        dataset, num_queries=args.queries, num_tables=args.tables, seed=args.seed
    )
    print(format_figure3(rows, title=f"Figure 3: {dataset.name}"))


def _cmd_profile(args: argparse.Namespace) -> None:
    dataset = _DATASETS[args.dataset](n=args.n, seed=args.seed)
    profile = distance_profile(dataset.points, dataset.metric, seed=args.seed)
    print(f"{dataset.name}: n = {dataset.n}, d = {dataset.dim}, metric = {dataset.metric}")
    print(format_table(
        ["quantile", "distance"],
        [[f"{q:g}", f"{v:.4g}"] for q, v in sorted(profile.quantiles.items())],
    ))
    print(f"suggested sweep: {tuple(round(r, 4) for r in suggest_radii(profile))}")
    print(f"paper sweep    : {dataset.radii}")
    mid_radius = dataset.radii[len(dataset.radii) // 2]
    hardness = hardness_profile(
        dataset.points, dataset.metric, float(mid_radius),
        num_queries=args.queries, seed=args.seed,
    )
    print(
        f"hardness at r = {mid_radius:g}: avg out {hardness.avg_output:.1f}, "
        f"max {hardness.max_output}, min {hardness.min_output}, "
        f"hard fraction {hardness.hard_fraction:.0%}"
    )


def _cmd_recall(args: argparse.Namespace) -> None:
    dataset = _DATASETS[args.dataset](n=args.n, seed=args.seed)
    rows = recall_experiment(
        dataset, num_queries=args.queries, num_tables=args.tables, seed=args.seed
    )
    print(format_recall(rows, title=f"Recall vs radius: {dataset.name}"))


def _index_spec_from_args(args: argparse.Namespace, metric: str, radius: float):
    """Assemble an :class:`~repro.api.IndexSpec` from the CLI flags.

    A ``--spec`` JSON file wins over individual flags, which win over
    the dataset-derived metric and radius.
    """
    from repro.api import IndexSpec

    doc = {
        "metric": metric,
        "radius": radius,
        "num_tables": args.tables,
        "num_shards": args.shards,
        "cache_size": args.cache_size,
        "cost_ratio": args.ratio if args.ratio and args.ratio > 0 else None,
        "layout": args.layout,
        "variant": args.variant,
        "num_probes": args.probes,
        "execution": args.execution,
        "seed": args.seed,
    }
    if args.spec:
        with open(args.spec) as fh:
            doc.update(json.load(fh))
    return IndexSpec.from_dict(doc)


def _build_index(args: argparse.Namespace):
    """Build a spec-driven index over the chosen dataset stand-in.

    Invalid flag combinations (e.g. ``--variant covering`` on a
    non-Hamming dataset, or ``--execution processes`` without
    ``--layout frozen``) exit non-zero with the validation message
    instead of a traceback — the CLI contract for misconfiguration.
    """
    from repro.api import Index
    from repro.exceptions import ConfigurationError

    dataset = _DATASETS[args.dataset](n=args.n, seed=args.seed)
    radius = (
        float(dataset.radii[len(dataset.radii) // 2])
        if args.radius is None
        else args.radius
    )
    if (
        getattr(args, "variant", "plain") == "covering"
        and args.radius is None
        and dataset.metric == "hamming"
    ):
        # Dataset sweep radii are rarely integral; the covering
        # construction needs an integer Hamming radius.  (Non-Hamming
        # datasets fall through so validation reports the real problem.)
        radius = float(max(1, int(round(radius))))
    try:
        spec = _index_spec_from_args(args, dataset.metric, radius)
        num_workers = getattr(args, "workers", None)
        fault_policy = getattr(args, "fault_policy", None)
        return dataset, Index.build(
            dataset.points, spec, num_workers=num_workers, fault_policy=fault_policy
        )
    except ConfigurationError as exc:
        sys.exit(f"error: {exc}")


def _cmd_build(args: argparse.Namespace) -> None:
    dataset, index = _build_index(args)
    index.save(args.out)
    print(
        f"built {dataset.name}: n = {index.n}, d = {index.dim}, "
        f"shards = {index.num_shards} -> saved to {args.out}"
    )
    print(json.dumps(index.spec.to_dict(), indent=2))
    # Releases worker processes and any transient pool artifact when the
    # spec asked for execution="processes".
    index.close()


def _fault_policy_from_args(args: argparse.Namespace):
    """Assemble a FaultTolerancePolicy from --deadline/--retries/--heartbeat.

    Returns ``None`` when no fault flag was given, so indexes keep the
    library defaults (and non-processes indexes never see a policy).
    """
    from repro.exceptions import ConfigurationError
    from repro.faults import FaultTolerancePolicy

    overrides = {}
    if args.deadline is not None:
        overrides["recv_deadline"] = args.deadline
    if args.retries is not None:
        overrides["max_retries"] = args.retries
    if getattr(args, "heartbeat", None) is not None:
        overrides["heartbeat_interval"] = args.heartbeat
    if not overrides:
        return None
    try:
        return FaultTolerancePolicy().with_overrides(**overrides)
    except ConfigurationError as exc:
        sys.exit(f"error: {exc}")


def _cmd_serve(args: argparse.Namespace, stdin=None, stdout=None) -> None:
    from repro.api import Index
    from repro.exceptions import ConfigurationError
    from repro.service import serve_stream, serve_stream_concurrent

    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    if args.inflight < 1:
        sys.exit("error: --inflight must be >= 1")
    if args.connect and not args.index:
        sys.exit("error: --connect requires --index (the artifact carries "
                 "the spec and shard map the client merges with)")
    fault_policy = _fault_policy_from_args(args)
    if args.index:
        # A saved index carries its own spec; accepting build flags here
        # and ignoring them would silently serve a different policy than
        # the operator asked for.  (--workers, --inflight, --connect,
        # --allow-partial, and the --stats-* telemetry flags are runtime
        # knobs, not spec fields, so they stay allowed.)
        conflicting = [
            flag
            for flag, given in (
                ("--spec", args.spec is not None),
                ("--radius", args.radius is not None),
                ("--shards", args.shards != 1),
                ("--cache-size", args.cache_size != 0),
                ("--ratio", args.ratio != 6.0),
                ("--layout", args.layout != "dict"),
                ("--variant", args.variant != "plain"),
                ("--probes", args.probes != 2),
                ("--execution", args.execution != "threads"),
            )
            if given
        ]
        if conflicting:
            sys.exit(
                f"error: --index serves the saved index's own spec; "
                f"remove {', '.join(conflicting)} (or rebuild with "
                f"`repro.cli build`)"
            )
        try:
            index = Index.open(
                args.index,
                num_workers=args.workers,
                fault_policy=fault_policy,
                endpoints=args.connect,
            )
        except ConfigurationError as exc:
            sys.exit(f"error: {exc}")
        source = args.index
    else:
        args.fault_policy = fault_policy
        dataset, index = _build_index(args)
        source = dataset.name
    spec = index.spec
    workers = (
        f", workers = {index.stats.pool_workers}"
        if index.execution == "processes"
        else ""
    )
    print(
        f"serving {source}: n = {index.n}, d = {index.dim}, "
        f"metric = {spec.metric}, r = {spec.radius:g}, "
        f"shards = {index.num_shards}, execution = {index.execution}{workers} "
        "(one JSON request per line; Ctrl-D to stop)",
        file=sys.stderr,
    )
    if args.inflight > 1:
        responses = serve_stream_concurrent(
            index,
            stdin,
            batch_size=args.batch_size,
            window=args.inflight,
            default_allow_partial=args.allow_partial,
        )
    else:
        lines, more_ready = _line_stream_with_probe(stdin)
        responses = serve_stream(
            index,
            lines,
            batch_size=args.batch_size,
            more_ready=more_ready,
            default_allow_partial=args.allow_partial,
        )
    stop_stats = _start_stats_reporter(
        index, getattr(args, "stats_interval", 0.0), getattr(args, "stats_log", None)
    )
    try:
        for response in responses:
            print(response, file=stdout, flush=True)
    finally:
        stop_stats()


def _cmd_shard_serve(args: argparse.Namespace) -> None:
    """Serve a saved artifact's shards over TCP until interrupted.

    Prints exactly one JSON line on stdout once the listener is bound —
    ``{"host": ..., "port": ..., "shards": [...], "pid": ...}`` — so a
    launcher (or CI script) can parse the chosen port and shard set,
    then blocks in the accept loop.  SIGINT/Ctrl-C shuts down cleanly.
    """
    import os

    from repro.exceptions import ConfigurationError
    from repro.service.shard_server import ShardServer

    shard_ids = None
    if args.shards is not None:
        try:
            shard_ids = [int(s) for s in args.shards.split(",") if s.strip()]
        except ValueError:
            sys.exit(f"error: --shards must be comma-separated ints, got {args.shards!r}")
        if not shard_ids:
            sys.exit("error: --shards named no shard ids")
    try:
        server = ShardServer(
            args.artifact, shard_ids=shard_ids, host=args.host, port=args.port
        )
    except (ConfigurationError, OSError) as exc:
        sys.exit(f"error: {exc}")
    print(
        json.dumps(
            {
                "host": server.host,
                "port": server.port,
                "shards": server.shard_ids,
                "pid": os.getpid(),
            }
        ),
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()


def _cmd_loadgen(args: argparse.Namespace) -> None:
    """Offer open-loop load against a saved (or connected) index."""
    from repro.api import Index
    from repro.exceptions import ConfigurationError
    from repro.service.loadgen import run_loadgen

    fault_policy = _fault_policy_from_args(args)
    try:
        index = Index.open(
            args.index, fault_policy=fault_policy, endpoints=args.connect
        )
    except ConfigurationError as exc:
        sys.exit(f"error: {exc}")
    try:
        doc = run_loadgen(
            index,
            rate=args.rate,
            duration=args.duration,
            seed=args.seed,
            mode=args.mode,
            k=args.k,
            radius=args.radius,
            allow_partial=args.allow_partial,
            concurrency=args.concurrency,
        )
    except ValueError as exc:
        sys.exit(f"error: {exc}")
    finally:
        index.close()
    if not args.samples:
        doc.pop("samples", None)
    latency = doc["latency"]
    print(
        f"loadgen: {doc['requests']} requests at {doc['rate']:g}/s for "
        f"{doc['duration']:g}s -> {doc['failures']} failures, "
        f"{doc['degraded']} degraded; "
        f"p50 {latency['p50_ms'] or float('nan'):.2f}ms, "
        f"p95 {latency['p95_ms'] or float('nan'):.2f}ms, "
        f"p99 {latency['p99_ms'] or float('nan'):.2f}ms",
        file=sys.stderr,
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    else:
        print(json.dumps(doc))


def _start_stats_reporter(index, interval: float, log_path: str | None):
    """Periodic JSONL stats lines while serving; returns a stop callable.

    Every ``interval`` seconds one ``index.stats_snapshot()`` document
    (timestamped) is appended as a single JSON line to ``log_path`` (or
    stderr), plus a final line at shutdown so short sessions still
    record their totals.  ``interval <= 0`` disables everything and the
    returned callable is a no-op.  Snapshots always describe the index
    this process started serving, even if the stream later swaps
    targets via ``open``/``create`` ops.
    """
    import threading
    import time as time_mod

    if not interval or interval <= 0:
        return lambda: None
    sink = open(log_path, "a", encoding="utf-8") if log_path else sys.stderr
    stop = threading.Event()

    def emit() -> None:
        doc = {"ts": time_mod.time(), **index.stats_snapshot()}
        print(json.dumps(doc), file=sink, flush=True)

    def loop() -> None:
        while not stop.wait(interval):
            emit()

    thread = threading.Thread(target=loop, name="repro-stats", daemon=True)
    thread.start()

    def stop_stats() -> None:
        stop.set()
        thread.join(timeout=5.0)
        try:
            emit()
        finally:
            if sink is not sys.stderr:
                sink.close()

    return stop_stats


def _line_stream_with_probe(stdin):
    """Line iterator over ``stdin`` plus an honest backlog probe.

    Micro-batching needs to know whether more requests are already
    waiting.  A bare ``select`` on the fd cannot see lines sitting in
    a ``TextIOWrapper``'s readahead buffer, so a keep-alive client's
    burst would be served line by line.  Reading the fd through our
    own buffer makes the backlog fully inspectable: ``more_ready`` is
    true while a complete line is buffered or the fd is readable.

    Returns ``(lines, more_ready)``; falls back to ``(stdin, None)``
    (answer every query immediately) when the stream has no usable fd.
    """
    import os
    import select

    try:
        fd = stdin.fileno()
    except (AttributeError, OSError, ValueError, io.UnsupportedOperation):
        return stdin, None

    buffer = bytearray()
    eof = [False]

    def fd_ready() -> bool:
        try:
            return bool(select.select([fd], [], [], 0.0)[0])
        except (OSError, ValueError):
            return False

    def more_ready() -> bool:
        return b"\n" in buffer or (not eof[0] and fd_ready())

    def lines():
        while True:
            newline = buffer.find(b"\n")
            if newline >= 0:
                line = bytes(buffer[: newline + 1])
                del buffer[: newline + 1]
                yield line.decode("utf-8", errors="replace")
                continue
            if eof[0]:
                if buffer:
                    tail = bytes(buffer)
                    buffer.clear()
                    yield tail.decode("utf-8", errors="replace")
                return
            chunk = os.read(fd, 65536)
            if chunk:
                buffer.extend(chunk)
            else:
                eof[0] = True

    return lines(), more_ready


_COMMANDS = {
    "table1": _cmd_table1,
    "figure2": _cmd_figure2,
    "figure3": _cmd_figure3,
    "profile": _cmd_profile,
    "recall": _cmd_recall,
    "build": _cmd_build,
    "serve": _cmd_serve,
    "shard-serve": _cmd_shard_serve,
    "loadgen": _cmd_loadgen,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    _COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
