"""Reached-code guard: every function in ``src/`` runs from a product entry
point, or ``reached_allowlist.txt`` beside this file says why it does not.

The entry points of :data:`RUNS` (the CLI's ``train`` in five forms, one of
them beside ``repro host`` filling its remote slot, ``trace
summarize|validate``, ``select``, ``list``, ``experiment all`` and
``examples/quickstart.py``) run as subprocesses under a call collector: a
generated ``sitecustomize.py`` first on ``PYTHONPATH`` installs
``sys.setprofile`` / ``threading.setprofile`` in every interpreter, spawned
workers and pool threads included, and writes the code objects that ran to
one file per process at exit.  Every ``def`` under ``src/`` is then matched
to them by file and first line (``ast``).

Exit 1 when a function never ran and no allowlist entry covers it, or when
an allowlist entry covers no function under ``src/``.  Either
way the never-called function lines are printed (a nested ``def`` of a
never-called function counts again: a size, not a list).

Run:  python tests/reached.py   (≈25 s on 2 CPUs; numpy, scipy only)
"""

from __future__ import annotations

import ast
import os
import secrets
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWLIST = Path(__file__).resolve().parent / "reached_allowlist.txt"

#: (label, argv after the interpreter[, a companion's argv]); ``{tmp}`` is a
#: scratch directory shared by the runs, so the tcp run resumes the shm
#: run's checkpoints and ``trace`` reads the 64-rank run's artifacts;
#: ``{rendezvous}`` is a free loopback ``host:port``.  A companion starts
#: before its run and runs on beside the later ones (a ``repro host``
#: probes its primary's address for a while after the pool ends); it must
#: exit 0 before the collection ends.
RUNS = [
    ("train inproc 8", ["-m", "repro", "train", "--gpus", "8", "--epochs", "3"]),
    ("train inproc 64 overlap traced", [
        "-m", "repro", "train", "--dataset", "reddit", "--gpus", "64", "--epochs", "2",
        "--hidden", "32", "--overlap", "--trace-dir", "{tmp}/trace",
    ]),
    ("train multiproc shm checkpointed", [
        "-m", "repro", "train", "--dataset", "reddit", "--gpus", "8", "--epochs", "2",
        "--backend", "multiproc", "--workers", "2", "--checkpoint-dir", "{tmp}/ckpt",
    ]),
    ("train multiproc tcp resumed", [
        "-m", "repro", "train", "--dataset", "reddit", "--gpus", "8", "--epochs", "3",
        "--backend", "multiproc", "--workers", "2", "--transport", "tcp",
        "--checkpoint-dir", "{tmp}/ckpt",
    ]),
    ("train multiproc tcp + repro host", [
        "-m", "repro", "train", "--dataset", "reddit", "--gpus", "8", "--epochs", "1",
        "--backend", "multiproc", "--workers", "2", "--transport", "tcp",
        "--rendezvous", "{rendezvous}", "--remote-workers", "1",
    ], ["-m", "repro", "host", "--rendezvous", "{rendezvous}"]),
    ("trace summarize", ["-m", "repro", "trace", "summarize", "{tmp}/trace"]),
    ("trace validate", ["-m", "repro", "trace", "validate", "{tmp}/trace"]),
    ("select", ["-m", "repro", "select"]),
    ("list", ["-m", "repro", "list"]),
    ("experiment all", ["-m", "repro", "experiment", "all"]),
    ("examples/quickstart.py", [str(ROOT / "examples" / "quickstart.py")]),
]

_HOOK = '''\
import atexit, os, sys, threading
_seen = set()
def _collect(frame, event, _arg, _add=_seen.add):
    if event == "call":
        _add(frame.f_code)
def _dump():
    sys.setprofile(None)
    lines = {{f"{{c.co_filename}}\\t{{c.co_firstlineno}}" for c in _seen
             if c.co_filename.startswith({src!r})}}
    with open(os.path.join({out!r}, f"{{os.getpid()}}.txt"), "w") as fh:
        fh.write("\\n".join(sorted(lines)))
atexit.register(_dump)
sys.setprofile(_collect)
threading.setprofile(_collect)
'''


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def collect() -> set[tuple[str, int]]:
    """``(path under src/, first line)`` of every code object the runs ran."""
    with tempfile.TemporaryDirectory(prefix="reached-") as tmp:
        hook, out = Path(tmp, "hook"), Path(tmp, "out")
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(_HOOK.format(src=str(SRC) + os.sep, out=str(out)))
        env = dict(
            os.environ, PYTHONPATH=os.pathsep.join([str(hook), str(SRC)]), TMPDIR=tmp,
            PLEXUS_AUTHKEY=secrets.token_hex(32),
        )
        fields = dict(tmp=tmp, rendezvous=f"127.0.0.1:{_free_port()}")
        popen = dict(cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        companions = []
        try:
            for label, *argvs in RUNS:
                t0 = time.perf_counter()
                argv, *companion = [[sys.executable, *(a.format(**fields) for a in v)] for v in argvs]
                companions += [(label, subprocess.Popen(c, **popen)) for c in companion]
                proc = subprocess.run(argv, **popen)
                print(f"  {label:34s} {time.perf_counter() - t0:5.1f} s  exit {proc.returncode}")
                if proc.returncode:
                    sys.exit(f"{label} failed:\n{proc.stdout[-4000:]}")
            for label, companion in companions:
                output = companion.communicate(timeout=120)[0]
                if companion.returncode:
                    sys.exit(f"{label}: its companion failed:\n{output[-4000:]}")
        finally:
            for _, companion in companions:
                companion.kill()  # (a no-op once it exited)
        ran = set()
        for f in out.iterdir():
            for line in f.read_text().splitlines():
                path, first = line.split("\t")
                ran.add((Path(path).relative_to(SRC).as_posix(), int(first)))
        return ran


def functions() -> dict[tuple[str, str], tuple[int, int]]:
    """``(path under src/, dotted qualname) -> (first line, line count)`` of
    every ``def`` in ``src/``; the first line is the first decorator's, as
    in the function's code object."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[path, name] = first, child.end_lineno - child.lineno + 1
                walk(child, path, name + ".")
            else:
                walk(child, path, prefix)

    for f in sorted(SRC.rglob("*.py")):
        walk(ast.parse(f.read_text()), f.relative_to(SRC).as_posix(), "")
    return out


def allowlist() -> list[str]:
    """Entries ``path`` (a whole file) or ``path::Qual.name`` (a class or a
    function, with every ``def`` inside it); ``#`` starts a comment."""
    entries = []
    for raw in ALLOWLIST.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            entries.append(line)
    return entries


def _covers(entry: str, path: str, name: str) -> bool:
    file, _, qual = entry.partition("::")
    return file == path and (not qual or name == qual or name.startswith(qual + "."))


def main() -> int:
    print("running the entry points under the call collector:")
    ran = collect()
    defs = functions()
    never = {k: v for k, v in defs.items() if (k[0], v[0]) not in ran}
    total = sum(n for _, n in defs.values())
    print(f"never-called function lines: {sum(n for _, n in never.values())} of {total} "
          f"({len(never)} of {len(defs)} functions)")
    entries = allowlist()
    stale = [e for e in entries if not any(_covers(e, *k) for k in defs)]
    uncovered = sorted(k for k in never if not any(_covers(e, *k) for e in entries))
    for e in stale:
        print(f"STALE allowlist entry (names nothing in src/): {e}")
    for path, name in uncovered:
        print(f"NEVER CALLED, not allowlisted: {path}::{name}")
    if stale or uncovered:
        print(f"{len(uncovered)} unreached function(s), {len(stale)} stale entr(ies): "
              f"delete the code, drive it from an entry point, or edit {ALLOWLIST.name}")
        return 1
    print(f"ok: every unreached function is allowlisted ({len(entries)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
