"""Command-line entry point: ``python -m repro <command> [options]``.

Three families of commands:

* ``repro run <artefact>`` — regenerate one of the paper's tables/figures
  (wraps :mod:`repro.experiments` with the shared knobs: preset selection,
  trial parallelism, dataset/method subsetting).
* ``repro fit`` / ``repro predict`` — the estimator-serving path: fit any
  registered clusterer on a data set, persist it as an ``.npz`` model
  archive, and later load that archive to assign new objects.  This is the
  end-to-end exercise of the v2 estimator contract
  (:mod:`repro.registry` + :mod:`repro.persistence`).
* ``repro serve`` / ``repro route`` — the long-lived serving tier
  (:mod:`repro.serving`): load a model archive once and answer
  ``predict``/``ingest`` requests over TCP, with server-side predict
  micro-batching (``--batch-rows``/``--batch-delay-ms``), periodic and
  ingest-count-triggered atomic snapshots back to disk, a write-ahead
  ingest log (``--wal``/``--wal-sync``) that makes every acked ingest
  survive a crash between snapshots (replayed exactly at restart), kernel
  warm-up before the first connection (``--no-warmup`` to skip), and read
  replicas that sync exactly from a primary (``--replica-of``).  ``repro route``
  fronts a primary + replicas behind one address, round-robining predicts.
  ``repro predict --server HOST:PORT`` is the matching client path.
* ``repro worker`` — host shards for the multi-host TCP backend: a
  long-lived server that receives its shard once per coordinator session and
  then exchanges only count statistics (:mod:`repro.distributed.rpc`).  It
  runs OpenBLAS on one thread, so start one worker per core.
* ``repro methods`` — list every registered clusterer (and executor backend)
  and its aliases.

``repro fit`` and ``repro run`` accept ``--backend`` (validated against the
executor-backend registry) and, for ``--backend tcp``, a comma-separated
``--workers HOST:PORT,...`` list.  ``run --backend`` applies to the
artefacts that construct MCDC through the registry: ``table3``, ``fig4``
and ``fig6``.

Examples::

    python -m repro run table3 --n-jobs 4
    python -m repro run table3 --methods MCDC "MCDC+F."
    python -m repro run fig6 --backend serial
    python -m repro fit Vot --method mcdc --out vot.npz --seed 0
    python -m repro fit Vot --method mcdc@sharded --backend tcp \
        --workers host1:9001,host2:9001 --out vot.npz
    python -m repro worker --listen 0.0.0.0:9001
    python -m repro predict vot.npz Vot --out labels.txt
    python -m repro serve vot.npz --listen 0.0.0.0:9100 --snapshot-every 100
    python -m repro serve vot.npz --listen 0.0.0.0:9100 --wal --wal-sync always
    python -m repro serve --replica-of host1:9100 --listen 0.0.0.0:9101
    python -m repro route --primary host1:9100 --replicas host1:9101,host1:9102
    python -m repro predict --server host1:9100 Vot --out labels.txt
    python -m repro methods

Installed as the ``repro-mcdc`` console script (see ``pyproject.toml``).
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
from pathlib import Path
from typing import List, Optional

ARTEFACTS = ("table2", "table3", "table4", "fig4", "fig5", "fig6")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's artefacts and serve fitted clusterers "
        "(MCDC / MGCPL / CAME).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="regenerate one experiment artefact")
    run.add_argument("artefact", choices=ARTEFACTS, help="which table/figure to regenerate")
    run.add_argument(
        "--preset",
        choices=("fast", "paper"),
        default=None,
        help="experiment preset (default: $REPRO_EXPERIMENT_PRESET or 'fast')",
    )
    run.add_argument(
        "--n-jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallelize repeated trials over N processes (results are identical)",
    )
    run.add_argument(
        "--n-restarts", type=int, default=None, metavar="N",
        help="override the preset's number of restarts per method",
    )
    run.add_argument(
        "--seed", type=int, default=None, metavar="SEED",
        help="override the preset's base random seed",
    )
    run.add_argument(
        "--datasets", nargs="+", default=None, metavar="NAME",
        help="restrict to these data sets (table3/table4/fig4/fig5)",
    )
    run.add_argument(
        "--methods", nargs="+", default=None, metavar="NAME",
        help="restrict to these methods (table3); names are validated against "
        "the clusterer registry",
    )
    _add_backend_options(run)

    fit = subparsers.add_parser(
        "fit", help="fit a registered clusterer and save the model archive"
    )
    fit.add_argument("data", help="UCI data set name (e.g. Vot) or a CSV/.data file path")
    fit.add_argument("--method", default="mcdc", metavar="NAME",
                     help="registered clusterer name (see 'repro methods')")
    fit.add_argument("--out", required=True, metavar="PATH",
                     help="where to write the .npz model archive")
    fit.add_argument("--n-clusters", type=int, default=None, metavar="K",
                     help="number of clusters (default: the data set's true k, else 2)")
    fit.add_argument("--seed", type=int, default=0, metavar="SEED",
                     help="random_state passed to the clusterer")
    fit.add_argument("--set", dest="params", nargs="+", default=(), metavar="KEY=VALUE",
                     help="extra constructor parameters, e.g. --set n_init=3 engine=dense")
    _add_backend_options(fit)
    _add_csv_options(fit)

    predict = subparsers.add_parser(
        "predict", help="load a saved model (or ask a running server) and "
        "assign objects to its clusters"
    )
    predict.add_argument(
        "model", nargs="?", default=None,
        help="path to a model archive written by 'repro fit' (omit with --server)",
    )
    predict.add_argument("data", help="UCI data set name or a CSV/.data file path")
    predict.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="ask a running 'repro serve' server instead of loading an archive",
    )
    predict.add_argument("--out", default=None, metavar="PATH",
                         help="write one predicted label per line to PATH")
    _add_csv_options(predict)

    serve = subparsers.add_parser(
        "serve", help="serve a fitted model archive over TCP (predict/ingest)"
    )
    serve.add_argument(
        "model", nargs="?", default=None,
        help="path to a model archive written by 'repro fit' "
        "(omit with --replica-of: a replica syncs its model from the primary)",
    )
    serve.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="address to listen on (port 0 picks a free port, printed at start)",
    )
    serve.add_argument(
        "--snapshot-every", type=int, default=0, metavar="N",
        help="snapshot the model back to disk after every N ingest batches",
    )
    serve.add_argument(
        "--snapshot-interval", type=float, default=None, metavar="SECONDS",
        help="also snapshot every SECONDS while new ingests are unsaved",
    )
    serve.add_argument(
        "--snapshot-path", default=None, metavar="PATH",
        help="where snapshots land (default: overwrite the model archive)",
    )
    serve.add_argument(
        "--wal", action=argparse.BooleanOptionalAction, default=False,
        help="write-ahead ingest log at <snapshot-path>.wal: every ingest is "
        "logged before it is applied, and a restart replays records newer "
        "than the snapshot, so a crash between snapshots loses no acked "
        "ingest (--no-wal disables; requires a snapshot path)",
    )
    serve.add_argument(
        "--wal-sync", choices=["always", "batch", "none"], default="batch",
        metavar="{always,batch,none}",
        help="per-record durability: 'always' fsyncs (survives machine "
        "crash), 'batch' flushes to the OS (survives process crash; "
        "default), 'none' leaves records buffered until rotation",
    )
    serve.add_argument(
        "--batch-rows", type=int, default=4096, metavar="N",
        help="micro-batching: coalesce queued predicts into kernel calls of "
        "at most N rows (0 disables batching)",
    )
    serve.add_argument(
        "--batch-delay-ms", type=float, default=0.0, metavar="MS",
        help="extra milliseconds the batcher may wait to build a fuller "
        "batch (0 drains whatever is queued)",
    )
    serve.add_argument(
        "--replica-of", default=None, metavar="HOST:PORT",
        help="start as a read replica of the primary server at HOST:PORT "
        "(full sync, then exact per-ingest deltas; rejects ingest)",
    )
    serve.add_argument(
        "--no-warmup", action="store_true",
        help="skip pre-compiling kernels and pre-warming the assignment "
        "cache before accepting connections",
    )
    serve.add_argument(
        "--once", action="store_true",
        help="exit once every accepted client session has finished",
    )

    route = subparsers.add_parser(
        "route", help="front a primary + read replicas behind one address"
    )
    route.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="address to listen on (port 0 picks a free port, printed at start)",
    )
    route.add_argument(
        "--primary", default=None, metavar="HOST:PORT",
        help="the ingest-accepting server (omit for a read-only fleet)",
    )
    route.add_argument(
        "--replicas", default=None, metavar="HOST:PORT,HOST:PORT,...",
        help="comma-separated read replicas predicts round-robin across "
        "(default: reads go to the primary)",
    )
    route.add_argument(
        "--once", action="store_true",
        help="exit once every accepted client session has finished",
    )

    worker = subparsers.add_parser(
        "worker", help="host shards for the multi-host TCP backend; each worker "
        "runs one BLAS thread (OPENBLAS_NUM_THREADS in its environment "
        "overrides), so start one worker per core"
    )
    worker.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="address to listen on (port 0 picks a free port, printed at start)",
    )
    worker.add_argument(
        "--once", action="store_true",
        help="exit after serving one coordinator session (single-fit demos; "
        "note an MCDC fit opens several sessions — leave workers persistent)",
    )

    subparsers.add_parser(
        "methods", help="list the registered clusterers and executor backends"
    )
    return parser


def _add_backend_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--backend", default=None, metavar="NAME",
        help="shard-executor backend for sharded methods (see 'repro methods'); "
        "validated against the backend registry",
    )
    sub.add_argument(
        "--workers", default=None, metavar="HOST:PORT,...",
        help="comma-separated worker addresses (required with --backend tcp)",
    )
    sub.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="reconnect attempts per failed shard call before giving up "
        "(--backend tcp; default 2)",
    )


def _resolve_backend_args(args: argparse.Namespace):
    """Validate backend flags; returns (backend, hosts, backend_options).

    ``backend_options`` carries the tcp backend's --max-retries, validated
    against the backend's registered option names; it is ``{}`` when the
    flag was not passed.
    """
    passed = {} if args.max_retries is None else {"max_retries": args.max_retries}
    if args.backend is None:
        if args.workers is not None:
            raise SystemExit("--workers requires --backend tcp")
        if passed:
            raise SystemExit("--max-retries requires --backend (e.g. --backend tcp)")
        return None, None, {}
    from repro.distributed.transport import available_backends, get_backend_spec

    try:
        spec = get_backend_spec(args.backend)
    except ValueError:
        raise SystemExit(
            f"unknown backend {args.backend!r}; registered backends: "
            + ", ".join(available_backends())
        )
    backend = spec.name
    hosts = None
    if args.workers is not None:
        if "hosts" not in spec.options:
            raise SystemExit(
                f"backend {backend!r} does not take --workers "
                "(only host-addressed backends such as tcp do)"
            )
        hosts = [token.strip() for token in args.workers.split(",") if token.strip()]
        if not hosts:
            raise SystemExit("--workers must list at least one HOST:PORT address")
    if "hosts" in spec.options and hosts is None:
        raise SystemExit(f"--backend {backend} requires --workers HOST:PORT,...")
    if passed and "max_retries" not in spec.options:
        raise SystemExit(
            f"backend {backend!r} does not take --max-retries "
            "(only the tcp backend does)"
        )
    if passed and passed["max_retries"] < 0:
        raise SystemExit("--max-retries must be >= 0")
    return backend, hosts, passed


def _add_csv_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--label-column", type=int, default=-1, metavar="COL",
        help="class-label column of a CSV input (default: last; ignored for UCI names)",
    )
    sub.add_argument(
        "--no-labels", action="store_true",
        help="the CSV input has no class-label column",
    )
    sub.add_argument(
        "--header", action="store_true",
        help="the first row of a CSV input holds feature names",
    )


# ---------------------------------------------------------------------- #
# repro run
# ---------------------------------------------------------------------- #
def _resolve_config(args: argparse.Namespace):
    from repro.experiments.config import FAST_CONFIG, PAPER_CONFIG, active_config

    # --preset selects the config directly (no process-global env mutation,
    # so in-process callers of main() keep their own active_config()).
    if args.preset == "paper":
        config = PAPER_CONFIG
    elif args.preset == "fast":
        config = FAST_CONFIG
    else:
        config = active_config()
    overrides = {}
    if args.n_jobs is not None:
        if args.n_jobs < 1:
            raise SystemExit("--n-jobs must be >= 1")
        overrides["n_jobs"] = args.n_jobs
    if args.n_restarts is not None:
        overrides["n_restarts"] = args.n_restarts
    if args.seed is not None:
        overrides["random_state"] = args.seed
    if args.datasets is not None:
        overrides["datasets"] = tuple(args.datasets)
    backend, hosts, backend_options = _resolve_backend_args(args)
    if backend is not None:
        # These artefacts route method construction through
        # route_through_backend (repro.experiments.runner), which is what
        # consumes config.backend; accepting the flag for the others would
        # silently run them serially.
        if args.artefact not in ("table3", "fig4", "fig6"):
            raise SystemExit(
                "--backend applies to 'run table3', 'run fig4' and 'run fig6' "
                "(the other artefacts construct no MCDC methods and would "
                "ignore it)"
            )
        overrides["backend"] = backend
        overrides["hosts"] = tuple(hosts) if hosts else ()
        if backend_options:
            overrides["backend_options"] = tuple(sorted(backend_options.items()))
        # Only the MCDC family has a sharded variant; say so once up front
        # rather than letting a --backend tcp run look fully distributed.
        print(
            f"note: --backend {backend} applies to the MCDC methods "
            "(MCDC, and for table3 MCDC+G./MCDC+F.); other methods — "
            "including the fig4 ablations — run serially"
        )
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _validated_methods(names: Optional[List[str]]) -> Optional[List[str]]:
    """Check experiment method names against the registry (clear error early)."""
    if not names:
        return None
    from repro.registry import available_clusterers, resolve_name

    for name in names:
        try:
            resolve_name(name)
        except ValueError:
            raise SystemExit(
                f"unknown method {name!r}; registered clusterers: "
                + ", ".join(available_clusterers())
            )
    return list(names)


def _run(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    artefact = args.artefact

    if artefact == "table2":
        from repro.experiments import table2

        table2.main()
    elif artefact == "table3":
        from repro.experiments import table3

        table3.main(config=config, methods=_validated_methods(args.methods))
    elif artefact == "table4":
        from repro.experiments import table4

        table4.main(config=config)
    elif artefact == "fig4":
        from repro.experiments import fig4

        fig4.main(config=config)
    elif artefact == "fig5":
        from repro.experiments import fig5

        fig5.main(config=config)
    elif artefact == "fig6":
        from repro.experiments import fig6

        fig6.main(config=config)
    else:  # pragma: no cover - argparse already rejects unknown artefacts
        raise SystemExit(f"unknown artefact {artefact!r}")
    return 0


# ---------------------------------------------------------------------- #
# repro fit / predict / methods
# ---------------------------------------------------------------------- #
def _load_cli_dataset(args: argparse.Namespace):
    """Resolve the data argument: a UCI registry name, else a delimited file path."""
    from repro.data.io import load_csv
    from repro.data.uci.registry import get_spec

    token = args.data
    try:
        spec = get_spec(token)
    except (KeyError, ValueError):
        spec = None
    if spec is not None:
        return spec.loader()
    path = Path(token)
    if not path.exists():
        raise SystemExit(
            f"{token!r} is neither a known UCI data set name nor an existing file"
        )
    return load_csv(
        path,
        label_column=None if args.no_labels else args.label_column,
        has_header=args.header,
    )


def _parse_override(item: str):
    """Parse one ``KEY=VALUE`` method parameter (VALUE via literal_eval)."""
    if "=" not in item:
        raise SystemExit(f"--set expects KEY=VALUE pairs, got {item!r}")
    key, raw = item.split("=", 1)
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw  # plain strings like engine=dense
    return key.strip(), value


def _construct_cli_model(args: argparse.Namespace, params: dict, backend):
    from repro.registry import make_clusterer

    try:
        return make_clusterer(args.method, **params)
    except TypeError as exc:
        # MGCPL and friends discover k themselves and take no n_clusters —
        # but only the *defaulted* k may be dropped silently; an explicit
        # --n-clusters the method cannot honour is an error, and so is any
        # other bad parameter (e.g. a --set typo).
        if backend is not None and ("backend" in str(exc) or "hosts" in str(exc)):
            raise SystemExit(
                f"method {args.method!r} does not take --backend; only the "
                "sharded methods do (mgcpl@sharded, came@sharded, "
                "mcdc@sharded and their @tcp variants — see 'repro methods')"
            )
        if "n_clusters" not in str(exc):
            raise
        if args.n_clusters is not None:
            raise SystemExit(
                f"method {args.method!r} does not take --n-clusters "
                "(it discovers the number of clusters itself)"
            )
        params.pop("n_clusters", None)
        return make_clusterer(args.method, **params)


def _fit(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.persistence import save_model

    dataset = _load_cli_dataset(args)
    n_clusters = args.n_clusters or dataset.n_clusters_true or 2
    params = dict(_parse_override(item) for item in args.params)
    params.setdefault("n_clusters", n_clusters)
    params.setdefault("random_state", args.seed)
    backend, hosts, backend_options = _resolve_backend_args(args)
    if backend is not None:
        params["backend"] = backend
        if hosts is not None:
            params["hosts"] = hosts
        if backend_options:
            params["backend_options"] = backend_options
    try:
        model = _construct_cli_model(args, params, backend)
    except ValueError as exc:
        # A host-addressed backend without workers (e.g. `--method mgcpl@tcp`
        # and no --workers) fails estimator validation; surface it as a clean
        # usage error instead of a traceback.
        if "requires hosts" in str(exc):
            raise SystemExit(f"{exc} (pass --workers HOST:PORT,...)")
        raise
    model.fit(dataset)
    path = save_model(model, args.out)

    sizes = ", ".join(str(count) for count in np.bincount(model.labels_))
    print(f"fitted {type(model).__name__} on {dataset.name}: "
          f"n={dataset.n_objects}, k={model.n_clusters_} (sizes: {sizes})")
    print(f"model saved to {path}")
    return 0


def _predict(args: argparse.Namespace) -> int:
    import numpy as np

    if args.server is not None and args.model is not None:
        raise SystemExit(
            "--server replaces the MODEL argument (the server already holds "
            "the model); pass one or the other"
        )
    if args.server is None and args.model is None:
        raise SystemExit("predict needs a MODEL archive path or --server HOST:PORT")

    dataset = _load_cli_dataset(args)
    if args.server is not None:
        from repro.serving import ServingClient

        with ServingClient(args.server) as client:
            labels = client.predict(dataset)
            n_clusters = int(client.server_info["n_clusters"])
    else:
        from repro.persistence import load_model

        model = load_model(args.model)
        labels = model.predict(dataset)
        n_clusters = model.n_clusters_

    counts = np.bincount(labels, minlength=n_clusters or 1)
    print(f"assigned {labels.shape[0]} objects to {int((counts > 0).sum())} of "
          f"{n_clusters} clusters (sizes: {', '.join(map(str, counts))})")
    if dataset.labels is not None:
        from repro.metrics import evaluate_clustering

        scores = evaluate_clustering(dataset.labels, labels)
        print("against ground truth: "
              + ", ".join(f"{k}={v:.3f}" for k, v in scores.items()))
    if args.out:
        np.savetxt(args.out, labels, fmt="%d")
        print(f"labels written to {args.out}")
    return 0


def _methods(_: argparse.Namespace) -> int:
    from repro.distributed.transport import backend_specs
    from repro.engine import ENGINE_ALIASES, ENGINES, NUMBA_AVAILABLE, resolve_engine_kind
    from repro.registry import registered_specs

    for spec in registered_specs():
        aliases = f"  (aliases: {', '.join(spec.aliases)})" if spec.aliases else ""
        print(f"{spec.name:<16} {spec.description}{aliases}")
    print()
    print("executor backends (--backend for sharded methods):")
    for backend in backend_specs():
        aliases = f"  (aliases: {', '.join(backend.aliases)})" if backend.aliases else ""
        print(f"{backend.name:<16} {backend.description}{aliases}")
    print()
    print("frequency engines (engine= on every clusterer):")
    auto_kind = resolve_engine_kind("auto", 1, 1)
    for name, engine_cls in sorted(ENGINES.items()):
        doc = (engine_cls.__doc__ or "").strip().splitlines()
        marker = "  [auto default]" if name == auto_kind else ""
        aliases = [alias for alias, target in ENGINE_ALIASES.items() if target == name]
        aliases = f"  (aliases: {', '.join(aliases)})" if aliases else ""
        print(f"{name:<16} {doc[0] if doc else ''}{marker}{aliases}")
    numba_note = "available" if NUMBA_AVAILABLE else "not installed (compiled runs interpreted)"
    print(f"numba: {numba_note}")
    return 0


def _serve(args: argparse.Namespace) -> int:
    from repro.distributed.codec import parse_address
    from repro.distributed.transport import TransportError
    from repro.serving import ModelServer

    try:
        host, port = parse_address(args.listen)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if (args.model is None) == (args.replica_of is None):
        raise SystemExit(
            "serve needs exactly one model source: a MODEL archive path "
            "(primary) or --replica-of HOST:PORT (read replica)"
        )
    if args.model is not None and not Path(args.model).exists():
        raise SystemExit(f"model archive {args.model!r} does not exist "
                         "(write one with 'repro fit ... --out PATH')")
    try:
        server = ModelServer(
            args.model, host, port,
            snapshot_path=args.snapshot_path,
            snapshot_every=args.snapshot_every,
            snapshot_interval=args.snapshot_interval,
            wal=args.wal,
            wal_sync=args.wal_sync,
            max_batch_rows=args.batch_rows,
            max_batch_delay_ms=args.batch_delay_ms,
            replica_of=args.replica_of,
            once=args.once,
        )
    except (ValueError, TransportError) as exc:
        raise SystemExit(str(exc))
    info = server.info()
    source = args.model if args.model is not None else f"primary {args.replica_of}"
    print(f"serving {info['clusterer']} (k={info['n_clusters']}, "
          f"n={info['n_objects']}, role={info['role']}) from {source}")
    if server.snapshot_path is not None and (args.snapshot_every or args.snapshot_interval):
        print(f"snapshots -> {server.snapshot_path}")
    if server.wal_enabled:
        print(f"write-ahead log -> {server.wal_path} (sync={server.wal_sync})")
        if server.wal_replayed_batches:
            print(f"wal replay: recovered {server.wal_replayed_batches} "
                  f"acked ingest batches ({server.wal_replayed_objects} rows)")
    if not args.no_warmup:
        # Pre-pay JIT and cache latency before the first client connects.
        numba = server.warm_up()
        print(f"warm-up done (numba {'compiled' if numba else 'not available'})")
    # The resolved address (port 0 -> ephemeral) goes out last and flushed,
    # so launchers can scrape it and point their clients at it.
    print(f"repro serve listening on {server.address}", flush=True)
    server.serve_forever()
    return 0


def _route(args: argparse.Namespace) -> int:
    from repro.distributed.codec import parse_address
    from repro.serving import ServingRouter

    try:
        host, port = parse_address(args.listen)
    except ValueError as exc:
        raise SystemExit(str(exc))
    replicas = [r.strip() for r in (args.replicas or "").split(",") if r.strip()]
    try:
        router = ServingRouter(args.primary, replicas, host, port, once=args.once)
    except ValueError as exc:
        raise SystemExit(str(exc))
    reads = ", ".join(router.read_backends)
    print(f"routing predicts across [{reads}]; "
          f"ingests -> {router.primary or 'rejected (read-only fleet)'}")
    print(f"repro route listening on {router.address}", flush=True)
    router.serve_forever()
    return 0


def _worker(args: argparse.Namespace) -> int:
    from repro.distributed.rpc import WorkerServer, parse_address
    from repro.utils.blas import limit_blas_threads

    try:
        host, port = parse_address(args.listen)
    except ValueError as exc:
        raise SystemExit(str(exc))
    server = WorkerServer(host, port, once=args.once)
    # The resolved address (port 0 -> ephemeral) goes out first and flushed,
    # so launchers can scrape it and build their --workers list.
    print(f"repro worker listening on {server.address}", flush=True)
    # Workers share the host's cores: parallelism comes from their number.
    limit_blas_threads()
    server.serve_forever()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    if args.command == "fit":
        return _fit(args)
    if args.command == "predict":
        return _predict(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "route":
        return _route(args)
    if args.command == "methods":
        return _methods(args)
    if args.command == "worker":
        return _worker(args)
    return 0  # pragma: no cover - argparse requires a subcommand


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
