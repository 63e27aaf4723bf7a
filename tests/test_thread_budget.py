"""One thread budget: the process pool of ``repro.sparse.ops`` is the only
parallelism of a repro process, so importing ``repro`` gives BLAS / OpenMP
one thread, whatever the import order, unless the user set a variable.

Each case runs a fresh interpreter with none of the three thread variables
set and reads the thread count every OpenBLAS mapped into it reports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
NAMES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

pytestmark = pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs Linux /proc")

#: appended to each case's imports: prints what every loaded OpenBLAS's
#: getter reports, and the thread variables the process ends up with
_REPORT = """
import ctypes, json, os
with open("/proc/self/maps") as maps:
    paths = {line.split(None, 5)[-1].strip() for line in maps}
counts = []
for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
    lib = ctypes.CDLL(path)
    getters = [pre + "openblas_get_num_threads" + post for pre in ("", "scipy_") for post in ("", "64_")]
    counts += [getattr(lib, name)() for name in getters if hasattr(lib, name)][:1]
print(json.dumps({"blas": counts, "env": [os.environ.get(n) for n in %r]}))
""" % (NAMES,)


def _fresh(imports: str, **env) -> tuple[dict, str]:
    """Run ``imports`` then the report in a new interpreter whose
    environment has no thread variable but ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in NAMES}
    out = subprocess.run(
        [sys.executable, "-c", imports + _REPORT],
        env={**base, **env, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    if not report["blas"]:
        pytest.skip("this numpy links no OpenBLAS")
    return report, out.stderr


def test_repro_first_gives_blas_one_thread():
    report, _ = _fresh("import repro, numpy")
    assert report["blas"] == [1]
    assert report["env"] == ["1", "1", "1"]


@pytest.mark.parametrize("imports", ["import numpy", "import numpy, scipy.linalg"], ids=["numpy", "numpy+scipy"])
def test_numpy_first_is_capped_through_its_setter(imports):
    """numpy (and scipy's own OpenBLAS) loaded before repro: every loaded
    library is capped through its C setter, and nothing is logged."""
    report, stderr = _fresh(imports + "\nimport repro")
    assert report["blas"] and set(report["blas"]) == {1}
    assert "cannot cap" not in stderr


@pytest.mark.parametrize("imports", ["import repro, numpy", "import numpy\nimport repro"], ids=["repro-first", "numpy-first"])
def test_a_value_the_user_set_wins(imports):
    """OpenBLAS caps a pool at the CPUs it may run on."""
    report, _ = _fresh(imports, OPENBLAS_NUM_THREADS="2")
    assert report["blas"] == [min(2, len(os.sched_getaffinity(0)))]
    assert report["env"] == ["1", "2", "1"]


def test_a_blas_it_cannot_cap_is_logged_once():
    """numpy loaded first and no OpenBLAS to be found among the process's
    mappings: the contention is logged once, and spawned processes still
    inherit one thread."""
    imports = (
        "import numpy, pathlib\n"
        "exists = pathlib.Path.exists\n"
        "pathlib.Path.exists = lambda self: str(self) != '/proc/self/maps' and exists(self)\n"
        "import repro\n"
        "pathlib.Path.exists = exists"
    )
    report, stderr = _fresh(imports)
    assert stderr.count("cannot cap") == 1
    assert report["env"] == ["1", "1", "1"]
