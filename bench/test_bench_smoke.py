"""Smoke test of the benchmark itself: ``python -m pytest bench -q``.

Not part of the tier-1 suite (``pyproject.toml`` collects ``tests/`` and
``benchmarks/`` only): the ``--quick`` run takes about a minute.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tree() -> dict[str, int]:
    """Every file of the checkout with its size (caches aside)."""
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    return {
        str(p.relative_to(ROOT)): p.stat().st_size
        for p in ROOT.rglob("*")
        if p.is_file() and not skip.intersection(p.relative_to(ROOT).parts)
    }


def _shm_segments() -> set[str]:
    root = Path("/dev/shm")
    return {p.name for p in root.iterdir()} if root.is_dir() else set()


def _python_children() -> set[int]:
    """Pids of spawned multiprocessing workers and benchmark children."""
    pids = set()
    for proc in Path("/proc").iterdir():
        if not proc.name.isdigit():
            continue
        try:
            cmdline = (proc / "cmdline").read_bytes()
        except OSError:
            continue
        if b"multiprocessing" in cmdline or b"bench/child.py" in cmdline:
            pids.add(int(proc.name))
    return pids


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    before = _tree(), _shm_segments(), _python_children()
    bench_files = {n: (ROOT / n).read_bytes() for n in ("BENCH_dist.json", "BENCH_train.json")}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    after = _tree(), _shm_segments(), _python_children()
    return proc, out, before, after, bench_files


def test_quick_run_emits_every_metric(quick_run):
    proc, out, *_ = quick_run
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    record = json.loads(out.read_text())
    assert record["correct"] and record["failed_frac"] == 0
    assert set(record["workloads"]) == set(WORKLOADS)
    for workload in WORKLOADS:
        got = record["workloads"][workload]
        for kind in ("end_to_end", "per_layer"):
            assert set(got[kind]) == {m["name"] for m in CONTRACT[kind]}
            for spec in CONTRACT[kind]:
                assert NAME.fullmatch(spec["name"])
                metric = got[kind][spec["name"]]
                assert metric["unit"] == spec["unit"]
                assert math.isfinite(metric["value"])
                # printed by name, with its unit, in this workload's rows
                assert re.search(
                    rf"^{workload} +{re.escape(spec['name'])} .*{re.escape(spec['unit'])}",
                    proc.stdout, re.MULTILINE,
                ), (workload, spec["name"])
        for spec in CONTRACT["end_to_end"]:  # the contract: never 0
            assert got["end_to_end"][spec["name"]]["value"] > 0
    noise = record["environment"]
    assert {"nproc", "loadavg", "threads", "versions", "git_commit"} <= set(noise)


def test_quick_run_leaves_nothing_behind(quick_run):
    _proc, _out, before, after, bench_files = quick_run
    assert after[0] == before[0]  # no file written inside the checkout
    assert after[1] <= before[1]  # no /dev/shm segment survives
    assert after[2] <= before[2]  # no child or worker process survives
    for name, content in bench_files.items():
        assert (ROOT / name).read_bytes() == content


def test_compare_accepts_a_record_against_itself(quick_run):
    _proc, out, *_ = quick_run
    done = subprocess.run(
        [sys.executable, "bench/compare.py", str(out), str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert " 0 worse" in done.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_contract_line(trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "toy128", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in CONTRACT[kind]
    }


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "toy128", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
