"""The repository's one benchmark: five workloads, end to end and per layer.

Two ways to run it, both from the repository root.  The unit of both is one
*run* of a workload: five fresh child processes, T/5 seconds of timed
epochs each, every metric the median over the five children's samples.

* ``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1`` —
  the acceptance driver's contract (``BENCHMARK.json``): one run of one
  workload and its ``end_to_end`` metrics (``--trace 0``), or one traced
  child and the ``per_layer`` metrics (``--trace 1``); one JSON object as
  the last line of stdout.
* ``python3 bench/run.py [--seed S] [--out FILE] [--quick]`` — every
  workload: ``--passes`` round-robin passes (A B C D E A B C D E) of one
  run each, pooled, then one traced child per workload.  Prints every
  metric by name with its unit, runs the correctness checks and the
  workload self-check, writes the whole record to ``--out`` and exits
  non-zero when a check fails.

This launcher never imports numpy or ``repro``: each child pins the BLAS
thread count before loading them (see ``child.py``).  Metric names, units
and regression bounds are read from ``BENCHMARK.json``; a child that
reports a different set of names fails the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONTRACT_PATH = ROOT / "BENCHMARK.json"
#: a child that has not finished by then is killed with its workers
CHILD_TIMEOUT_S = 170.0
#: the host-speed reference loop (``child.reference_us``) at the speed this
#: host shows most of the time; time metrics are scaled to it
REFERENCE_NOMINAL_US = 5.0
#: children per run: set-up runs that often (``setup_s`` is their median) and
#: the timed windows sit in five processes at five moments.  One child's
#: median sits 5 % off the next one's on ``dense1536`` however long its
#: window (page placement and co-tenant state are per process), and one
#: set-up 15 % off the next, so a run spends its seconds in many children
RUN_CHILDREN = 5


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a measured failure)."""


def load_contract() -> dict:
    with open(CONTRACT_PATH) as fh:
        return json.load(fh)


# -- children ----------------------------------------------------------------------
def spawn_child(workload: str, seed: int, seconds: float, mode: str, check: bool,
                work_dir: Path) -> dict:
    """Run ``child.py`` to completion in its own session; on a hang the
    whole process group (the child and its workers) is killed and the
    program's own sweep reclaims their shared-memory segments."""
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--mode", mode, "--check", str(int(check)), "--work-dir", str(work_dir),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        subprocess.run(
            [sys.executable, "-c",
             "from repro.runtime import cleanup_orphans; cleanup_orphans()"],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=False,
        )
        raise
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload}: {mode} child exited with code {proc.returncode}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError) as err:
        raise BenchmarkError(f"{workload}: {mode} child printed no result") from err


# -- one run, and pooling runs -----------------------------------------------------
def measure_run(workload: str, seed: int, seconds: float, check: bool,
                work_dir: Path) -> list[dict]:
    """One end-to-end run: ``RUN_CHILDREN`` fresh children sharing
    ``seconds`` of timed epochs; the first also runs the correctness checks."""
    return [
        spawn_child(workload, seed, seconds / RUN_CHILDREN, "window", check and i == 0, work_dir)
        for i in range(RUN_CHILDREN)
    ]


def _at_reference_speed(child: dict, key: str) -> list[float]:
    """Per-epoch samples scaled to the nominal host speed: each epoch is
    divided by the mean of the reference chunks run just before and after."""
    ref = child["ref_us"]
    return [
        v * REFERENCE_NOMINAL_US / ((ref[i] + ref[i + 1]) / 2.0)
        for i, v in enumerate(child[key])
    ]


def _sim_epoch_ms(child: dict) -> float:
    from child import SIM_EPOCHS

    return sum(child["sim_s"][:SIM_EPOCHS]) / SIM_EPOCHS * 1e3


#: end-to-end metric -> (one child's samples, the same as the clock read them)
_SAMPLES = {
    "epoch_ms": (lambda c: _at_reference_speed(c, "wall_ms"), lambda c: c["wall_ms"]),
    "epoch_cpu_ms": (lambda c: _at_reference_speed(c, "cpu_ms"), lambda c: c["cpu_ms"]),
    "setup_s": (
        lambda c: [c["setup_s"] * REFERENCE_NOMINAL_US / c["setup_ref_us"]],
        lambda c: [c["setup_s"]],
    ),
    "sim_epoch_ms": (lambda c: [_sim_epoch_ms(c)],) * 2,
    "peak_rss_mb": (lambda c: [c["peak_rss_mb"]],) * 2,
}


def pool_end_to_end(runs: list[list[dict]], contract: dict) -> dict:
    """The end-to-end record of one workload from its runs (one per pass):
    every metric is the median over all children's samples; ``pass_values``
    are the medians of each run alone."""
    children = [c for run in runs for c in run]
    end_to_end = {}
    for spec in contract["end_to_end"]:
        scaled, raw = _SAMPLES[spec["name"]]
        per_run = [[v for c in run for v in scaled(c)] for run in runs]
        summary = stats.summarize([v for samples in per_run for v in samples])
        per_pass = [stats.median(samples) for samples in per_run]
        end_to_end[spec["name"]] = {
            "value": summary.pop("median"),
            "unit": spec["unit"],
            **summary,
            "pass_values": per_pass,
            "pass_spread": stats.rel_range(per_pass),
            # as the clock read it, before host-speed scaling
            "raw_median": stats.median([v for c in children for v in raw(c)]),
        }
    checks = [chk for c in children for chk in c["checks"]]
    sims = [_sim_epoch_ms(c) for c in children]
    checks.append({
        "name": "sim_epoch_ms_repeats_exactly",
        "ok": len(set(sims)) == 1,
        "detail": f"{len(sims)} children: {sorted(set(sims))}",
    })
    failures = [f for c in children for f in c["failures"]]
    failures += [f"check {c['name']}: {c['detail']}" for c in checks if not c["ok"]]
    return {
        "end_to_end": end_to_end,
        "attempted": sum(c["attempted"] for c in children) + len(checks),
        "failed": len(failures),
        "failures": failures,
        "checks": checks,
        "loss_at_3": children[0]["loss_at_3"],
        "reference_us": [stats.median([v for c in run for v in c["ref_us"]]) for run in runs],
    }


def per_layer_record(child: dict, contract: dict) -> dict:
    """The per-layer record of one workload from its trace child."""
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    got = child["metrics"]
    if set(got) != set(units):
        raise BenchmarkError(
            f"{child['workload']}: per-layer names differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(got))}, extra {sorted(set(got) - set(units))}"
        )
    failures = list(child["failures"])
    failures += [f"check {c['name']}: {c['detail']}" for c in child["checks"] if not c["ok"]]
    return {
        "per_layer": {n: {"value": got[n], "unit": units[n]} for n in units},
        "attempted": child["attempted"] + len(child["checks"]),
        "failed": len(failures),
        "failures": failures,
        "checks": child["checks"],
        "untraced_samples": child["untraced_samples"],
    }


#: what each workload was chosen to be (see README.md): the traced pass
#: confirms the program still spends its time where the workload claims
_SHARES = ("sparse.aggregation_frac", "core.batch.combination_frac",
           "dist.comm.communication_frac", "core.trainer.other_frac")


def workload_self_check(traced: dict[str, dict]) -> list[dict]:
    def value(workload: str, name: str) -> float:
        return traced[workload]["per_layer"][name]["value"]

    rules = [
        ("rmat32k", "aggregation is the largest share",
         lambda w: value(w, _SHARES[0]) == max(value(w, s) for s in _SHARES)),
        ("toy128", "aggregation share < 0.10", lambda w: value(w, _SHARES[0]) < 0.10),
        ("toy128", "communication share >= 0.35", lambda w: value(w, _SHARES[2]) >= 0.35),
        ("dense1536", "unprobed share < 0.20", lambda w: value(w, _SHARES[3]) < 0.20),
        ("rmat32k", "unprobed share < 0.20", lambda w: value(w, _SHARES[3]) < 0.20),
    ]
    return [
        {"name": f"{w}: {what}", "ok": bool(rule(w)),
         "detail": ", ".join(f"{s}={value(w, s):.3f}" for s in _SHARES)}
        for w, what, rule in rules if w in traced
    ]


# -- reporting ---------------------------------------------------------------------
def environment() -> dict:
    from child import THREAD_PINS

    commit = "unknown"
    if (ROOT / ".git").exists():  # the driver's checkout is not a repository
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "threads": {name: "1" for name in THREAD_PINS},
        "python": platform.python_version(),
        "git_commit": commit,
    }


def print_end_to_end(workload: str, record: dict) -> None:
    for name, m in record["end_to_end"].items():
        passes = "/".join(f"{v:.6g}" for v in m["pass_values"])
        print(f"{workload:14s} {name:14s} {m['value']:12.6g} {m['unit']:3s} "
              f"IQR [{m['q1']:.6g}, {m['q3']:.6g}] n={m['n']} "
              f"p{m['tail_p']:g}={m['tail']:.6g} passes {passes} "
              f"(spread {m['pass_spread'] * 100:.1f}%) raw {m['raw_median']:.6g}")
    ref = "/".join(f"{v:.2f}" for v in record["reference_us"])
    print(f"{workload:14s} loss_at_3 {record['loss_at_3']!r}  "
          f"failed {record['failed']}/{record['attempted']}  "
          f"host reference {ref} us/iter (nominal {REFERENCE_NOMINAL_US:g})")


def print_per_layer(workload: str, record: dict) -> None:
    for name, m in record["per_layer"].items():
        print(f"{workload:14s} {name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"{workload:14s} untraced window: {record['untraced_samples']} epochs; "
          f"failed {record['failed']}/{record['attempted']}")


def print_checks(title: str, checks: list[dict]) -> None:
    for c in checks:
        print(f"{'ok  ' if c['ok'] else 'FAIL'} {title}: {c['name']} ({c['detail']})")


# -- the two ways to run -------------------------------------------------------------
def run_driver(args, contract: dict, work_dir: Path) -> int:
    """One workload, one JSON line: the ``BENCHMARK.json`` contract."""
    if args.trace:
        child = spawn_child(args.workload, args.seed, args.seconds, "trace", False, work_dir)
        record = per_layer_record(child, contract)
        print_per_layer(args.workload, record)
        # reported, not counted: a share that moved means the workload no
        # longer stresses what it was chosen for, not that the program failed
        print_checks("workload self-check", workload_self_check({args.workload: record}))
        metrics = record["per_layer"]
    else:
        run = measure_run(args.workload, args.seed, args.seconds, True, work_dir)
        record = pool_end_to_end([run], contract)
        print_end_to_end(args.workload, record)
        metrics = record["end_to_end"]
    print_checks(args.workload, record["checks"])
    for failure in record["failures"]:
        print(f"FAILED {args.workload}: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }))
    return 0 if record["failed"] == 0 else 1


def run_all(args, contract: dict, work_dir: Path) -> int:
    """Every workload: round-robin end-to-end passes, then the traced pass."""
    names = [w["name"] for w in contract["workloads"]]
    runs: dict[str, list[list[dict]]] = {n: [] for n in names}
    for p in range(args.passes):
        for name in names:
            print(f"# pass {p + 1}/{args.passes}: {name}", file=sys.stderr)
            runs[name].append(measure_run(name, args.seed, args.seconds, p == 0, work_dir))
    record = {"seed": args.seed, "passes": args.passes, "run_seconds": args.seconds,
              "environment": environment(), "workloads": {}}
    traced = {}
    for name in names:
        print(f"# traced pass: {name}", file=sys.stderr)
        traced[name] = per_layer_record(
            spawn_child(name, args.seed, args.seconds, "trace", False, work_dir), contract
        )
        e2e = pool_end_to_end(runs[name], contract)
        record["workloads"][name] = {
            **e2e,
            "per_layer": traced[name]["per_layer"],
            "attempted": e2e["attempted"] + traced[name]["attempted"],
            "failed": e2e["failed"] + traced[name]["failed"],
            "failures": e2e["failures"] + traced[name]["failures"],
            "checks": e2e["checks"] + traced[name]["checks"],
        }
        print_end_to_end(name, e2e)
        print_per_layer(name, traced[name])
        print_checks(name, record["workloads"][name]["checks"])
    record["environment"]["versions"] = runs[names[0]][0][0]["versions"]
    record["self_check"] = workload_self_check(traced)
    print_checks("workload self-check", record["self_check"])
    failed = sum(w["failed"] for w in record["workloads"].values())
    attempted = sum(w["attempted"] for w in record["workloads"].values())
    record["failed_frac"] = failed / attempted
    record["correct"] = failed == 0 and all(c["ok"] for c in record["self_check"])
    print(f"failed_frac {record['failed_frac']:.6g} ratio ({failed}/{attempted}); "
          f"{'all checks passed' if record['correct'] else 'CHECKS FAILED'}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if record["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this workload only, print the driver's JSON line")
    parser.add_argument("--seed", type=int, default=1, help="seeds input generation only")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed seconds per run (one run per workload and pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--passes", type=int, default=2, help="round-robin passes (all workloads)")
    parser.add_argument("--out", help="write the full record here (all workloads)")
    parser.add_argument("--quick", action="store_true", help="1 pass, 1 s runs (smoke run)")
    args = parser.parse_args(argv)
    if args.quick:
        args.passes, args.seconds = 1, 1.0
    contract = load_contract()
    known = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(known)})")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    work_dir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        run = run_driver if args.workload is not None else run_all
        return run(args, contract, work_dir)
    except BenchmarkError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()  # only when no concurrent run uses it
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
