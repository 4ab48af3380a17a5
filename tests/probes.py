"""Probes: theorem rows with one factor lowered below the paper's, each with
a corpus case where the lowered statement fails.

A probe is not a theorem.  It enters ``verify.ALL_THEOREMS`` only inside a
test, through the ``probes`` fixture of ``conftest.py``, so the corpus report
never runs it.  Each shows that the verifier reaches a re-validated
``counterexample`` on a real failure, and which witness it reports there.
"""

from typing import Callable, NamedTuple

from sepdual.verify import _legs


class Probe(NamedTuple):
    theorem: str  # the id the row is run under, named after the row it lowers
    body: Callable  # that row of ALL_THEOREMS with one factor lowered
    graph: str  # the corpus graph of the failing case
    k2: int  # the doubled threshold of the failing case
    witness: dict  # fields the counterexample's witness carries


PROBES = (
    Probe("probe_shift_tangle_f1",
          _legs("tangle", ("s", 1), ("pull", "o", 1)),
          "random-4x2-p05-s102", 2, {"kind": "cover_triple", "side": "y"}),
    Probe("probe_partition_shift_f2",
          _legs("tangle", ("s", 2), ("pull", "o", 1), hints="so", prefix="b"),
          "random-4x4-p05-s126", 3,
          {"kind": "not_total", "side": "y",
           "member": {"a": ["x3"], "b": ["x1", "x2", "x4"]}}),
    Probe("probe_profile_shift_f1",
          _legs("regular_profile", ("s", 1), ("pull", "o", 1)),
          "random-3x3-p07-s105", 3, {"kind": "corner_triple", "side": "x"}),
)
