"""Command-line interface: regenerate paper artifacts or run training.

Usage::

    python -m repro list                      # available experiments/datasets
    python -m repro experiment fig8           # print a regenerated figure
    python -m repro experiment all            # everything (slow)
    python -m repro train --dataset reddit --gpus 8 --epochs 10
    python -m repro train --dataset ogbn-products --gpus 64 --overlap
    PLEXUS_AUTHKEY=<hex> python -m repro train --backend multiproc \
        --transport tcp --rendezvous 127.0.0.1:29500 --workers 2 --remote-workers 1
    PLEXUS_AUTHKEY=<hex> python -m repro host --rendezvous 127.0.0.1:29500
    python -m repro select --dataset products-14m --gpus 256
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import PERLMUTTER, machine_by_name, train_plexus
from repro.experiments import fig5, fig6, fig7, fig8, fig9, fig10, loader, table1, table2, table3, table4
from repro.graph import dataset_stats, list_datasets

_EXPERIMENTS = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "loader": loader.run,
}


def _cmd_list(_args) -> int:
    print("experiments:", " ".join(sorted(_EXPERIMENTS)))
    print("datasets:   ", " ".join(list_datasets()))
    return 0


def _cmd_experiment(args) -> int:
    names = sorted(_EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        if name not in _EXPERIMENTS:
            print(f"unknown experiment {name!r}; try: {sorted(_EXPERIMENTS)}", file=sys.stderr)
            return 2
        _EXPERIMENTS[name]().print()
        print()
    return 0


def _cmd_train(args) -> int:
    result = train_plexus(
        args.dataset,
        gpus=args.gpus,
        epochs=args.epochs,
        machine=machine_by_name(args.machine),
        hidden=args.hidden,
        seed=args.seed,
        overlap=args.overlap,
        backend=args.backend,
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        max_restarts=args.max_restarts,
        transport=args.transport,
        rendezvous=args.rendezvous,
        remote_workers=args.remote_workers,
        trace_dir=args.trace_dir,
    )
    for i, e in enumerate(result.epochs):
        print(f"epoch {i:3d}  loss {e.loss:.6f}  time {e.epoch_time * 1e3:9.3f} ms "
              f"(comm {e.comm_time * 1e3:.3f} / comp {e.comp_time * 1e3:.3f})")
    print(f"mean epoch time (skip 2 warm-up): {result.mean_epoch_time() * 1e3:.3f} ms")
    return 0


def _cmd_host(args) -> int:
    from repro.runtime import host_workers

    served = host_workers(rendezvous=args.rendezvous, workers=args.workers)
    print(f"served {served} pool session(s)")
    if not served:
        print(
            f"no pool joined: nothing accepted connections at {args.rendezvous} "
            "(start the primary launcher first: train --transport tcp "
            "--rendezvous host:port --remote-workers N)",
            file=sys.stderr,
        )
    return 0 if served else 1


def _cmd_trace(args) -> int:
    from repro.obs import summarize_trace_dir, validate_trace_dir

    if args.action == "summarize":
        print(summarize_trace_dir(args.trace_dir))
        return 0
    problems = validate_trace_dir(args.trace_dir)
    if problems:
        for p in problems:
            print(f"INVALID: {p}", file=sys.stderr)
        return 1
    print(f"{args.trace_dir}: trace artifacts valid")
    return 0


def _cmd_select(args) -> int:
    from repro import select_best_config
    from repro.experiments.common import gcn_layer_dims

    st = dataset_stats(args.dataset)
    dims = gcn_layer_dims(st.features, st.classes)
    machine = machine_by_name(args.machine)
    ranked = select_best_config(args.gpus, st, dims, machine, top_k=args.top)
    print(f"best 3D configurations for {st.name} at {args.gpus} devices on {machine.name}:")
    for cfg, t in ranked:
        print(f"  {cfg.name:12s} predicted {t * 1e3:9.1f} ms/epoch")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and datasets").set_defaults(func=_cmd_list)

    p = sub.add_parser("experiment", help="regenerate one paper table/figure (or 'all')")
    p.add_argument("name")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("train", help="train Plexus on a scaled synthetic dataset")
    p.add_argument("--dataset", default="ogbn-products", choices=list_datasets())
    p.add_argument("--gpus", type=int, default=8)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--machine", default="perlmutter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--overlap", action=argparse.BooleanOptionalAction, default=False,
        help="schedule collectives nonblocking (issue early, wait at use) so "
             "communication hides behind compute; --no-overlap (default) runs "
             "the eager schedule — losses are identical either way, only the "
             "simulated comm/comp breakdown changes",
    )
    p.add_argument(
        "--backend", choices=("inproc", "multiproc"), default="inproc",
        help="execution runtime: 'inproc' simulates every rank in this "
             "process; 'multiproc' shards the rank cube across --workers OS "
             "processes over a shared-memory transport (bitwise-identical "
             "results on every sharding, padded shards included)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker-process count for --backend multiproc (each owns whole "
             "z-planes of the cube; 1 <= workers <= Gz; default min(2, Gz))",
    )
    p.add_argument(
        "--checkpoint-dir", default=None,
        help="enable epoch-boundary checkpointing into this directory; "
             "--epochs becomes a total target, so re-running after an "
             "interruption resumes from the newest checkpoint and produces "
             "the bitwise-identical TrainResult",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="epochs between checkpoints (default 1; only with "
             "--checkpoint-dir)",
    )
    p.add_argument(
        "--max-restarts", type=int, default=2,
        help="replay attempts from the latest checkpoint (default 2; with "
             "--checkpoint-dir, on any backend): only a pool failure — a "
             "crashed, wedged or desynchronized worker, a corrupted payload "
             "— uses one; the in-process trainer has none",
    )
    p.add_argument(
        "--transport", choices=("shm", "tcp"), default="shm",
        help="multiproc worker fabric: 'shm' (default) is the single-host "
             "/dev/shm bus; 'tcp' runs the socket transport with rendezvous "
             "and typed deadlines; a lost connection fails the pool, which "
             "--checkpoint-dir replays (bitwise-identical over loopback)",
    )
    p.add_argument(
        "--rendezvous", default=None,
        help="tcp only: host:port for the membership rendezvous (default "
             "127.0.0.1:0; port 0 picks an ephemeral port); with "
             "--remote-workers the port must be explicit, since 'repro host' "
             "dials this address",
    )
    p.add_argument(
        "--remote-workers", type=int, default=0,
        help="tcp only: how many of --workers slots are filled by workers "
             "attached from a second launcher ('repro host') instead of "
             "being spawned here; both launchers need the same session key "
             "in $PLEXUS_AUTHKEY (hex)",
    )
    p.add_argument(
        "--trace-dir", default=None,
        help="enable the telemetry layer (repro.obs) and write the merged "
             "trace artifacts here: trace.json (Chrome trace-event JSON, "
             "loadable in Perfetto), events.jsonl, metrics.jsonl and "
             "summary.json — results stay bitwise identical to an untraced "
             "run",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "host",
        help="attach worker processes to a running tcp-transport launcher "
             "(the secondary launcher of a multi-host pool)",
    )
    p.add_argument(
        "--rendezvous", required=True,
        help="the primary launcher's host:port (its --rendezvous); the "
             "session key is the primary's $PLEXUS_AUTHKEY (hex), which "
             "must be set here too",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes to attach (the primary must reserve as many "
             "--remote-workers slots)",
    )
    p.set_defaults(func=_cmd_host)

    p = sub.add_parser(
        "trace",
        help="inspect a --trace-dir: 'summarize' prints phase totals, "
             "metrics and liveness; 'validate' schema-checks the Chrome "
             "trace (exit 1 on problems)",
    )
    p.add_argument("action", choices=("summarize", "validate"))
    p.add_argument("trace_dir")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("select", help="rank 3D configurations with the performance model")
    p.add_argument("--dataset", default="ogbn-products", choices=list_datasets())
    p.add_argument("--gpus", type=int, default=64)
    p.add_argument("--machine", default="perlmutter")
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=_cmd_select)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # stdout went away mid-print (`repro trace summarize | head`):
        # detach it so the interpreter's shutdown flush can't re-raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(0)
