import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from probes import PROBES
from sepdual import _native, from_edges, verify


@pytest.fixture
def m2():
    return from_edges([("x1", "y1"), ("x2", "y2")])


@pytest.fixture
def m3():
    return from_edges([("x1", "y1"), ("x2", "y2"), ("x3", "y3")])


@pytest.fixture
def k22():
    return from_edges([(f"x{i}", f"y{j}") for i in (1, 2) for j in (1, 2)])


@pytest.fixture
def k33():
    return from_edges([(f"x{i}", f"y{j}") for i in (1, 2, 3) for j in (1, 2, 3)])


@pytest.fixture
def two_blocks():
    """Disjoint union of two K33 blocks: x1-3/y1-3 and x4-6/y4-6."""
    pairs = [(f"x{i}", f"y{j}") for i in (1, 2, 3) for j in (1, 2, 3)]
    pairs += [(f"x{i}", f"y{j}") for i in (4, 5, 6) for j in (4, 5, 6)]
    return from_edges(pairs)


@pytest.fixture
def path3():
    """Path x1 - y1 - x2 - y2: three edges, no ties anywhere."""
    return from_edges([("x1", "y1"), ("x2", "y1"), ("x2", "y2")])


@pytest.fixture
def probes(monkeypatch):
    """The rows of ``probes.PROBES``, in ``verify.ALL_THEOREMS`` for one test."""
    for probe in PROBES:
        monkeypatch.setitem(verify.ALL_THEOREMS, probe.theorem, probe.body)
    return PROBES


@pytest.fixture
def python_walk():
    """Every search on the Python walk, ``tangles._walk``, and every scan
    on the Python body of ``_kernels.scan_members``: the extension's loader
    finds no library, as on a host without a compiler.  Its own patch, so a
    test's ``monkeypatch.undo()`` leaves it in place."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        yield
