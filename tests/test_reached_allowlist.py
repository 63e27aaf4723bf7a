"""The static half of the reached-code guard (``tests/reached.py``): the
allowlist and the ``def`` index it is matched against, without running the
entry points."""

import inspect

import pytest

import reached
from repro.dist import cluster, padded


@pytest.fixture(scope="module")
def defs():
    return reached.functions()


def test_every_entry_names_code_in_src(defs):
    stale = [e for e in reached.allowlist() if not any(reached._covers(e, *k) for k in defs)]
    assert stale == []


def test_no_entry_is_listed_twice():
    entries = reached.allowlist()
    assert len(entries) == len(set(entries))


@pytest.mark.parametrize(
    "entry, path, name, covered",
    [
        ("repro/runtime/faults.py", "repro/runtime/faults.py", "FaultInjector.fire", True),  # a whole file
        ("a.py::C", "a.py", "C.f.inner", True),  # a class, with every def inside it
        ("a.py::C.f", "a.py", "C.f", True),
        ("a.py::C", "a.py", "CBase.f", False),  # a qualname prefix, not a string prefix
        ("a.py::C.f", "b.py", "C.f", False),  # another file
    ],
)
def test_covers(entry, path, name, covered):
    assert reached._covers(entry, path, name) is covered


@pytest.mark.parametrize(
    "fn",
    [cluster.ClockStore.record_at, cluster.ClockStore.links.fget, padded.CubeStack.of, padded.cube_boxes],
    ids=["method", "property", "classmethod", "lru_cache"],
)
def test_first_line_is_the_code_objects(defs, fn):
    """A function is matched to the code objects that ran by file and first
    line; the index must give the line ``co_firstlineno`` does, decorators
    included."""
    code = inspect.unwrap(fn).__code__
    path = code.co_filename
    rel = path[path.index("repro/"):]
    first, _ = defs[rel, fn.__qualname__]
    assert first == code.co_firstlineno
