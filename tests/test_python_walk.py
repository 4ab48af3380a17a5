"""The search and scan tests of ``test_tangles`` and the deep CLI search of
``test_cli`` again, on the Python walk and the Python scan, and the pinned
corpus report on both.

Those modules run them on the walk and scan the package picks, the C ones of
``sepdual._native`` wherever the extension is built.  Here the
``python_walk`` fixture makes the loader find no library, so every search
runs ``tangles._walk`` and every scan the Python body of
``_kernels.scan_members``, the fallbacks and the references of the C code.
"""

import hashlib

import pytest
from test_acceptance import CORPUS_REPORT_SHA256
from test_cli import (  # noqa: F401 - collected again in this module
    test_tangles_search_deeper_than_the_recursion_limit,
)
from test_tangles import (  # noqa: F401 - collected again in this module
    test_capped_system_is_never_decoded,
    test_large_universe_is_counted_and_listed_only_as_far_as_read,
    test_member_cap,
    test_member_cap_checked_before_empty_prefix,
    test_naive_oracle_agreement,
    test_naive_oracle_agreement_profiles,
    test_prefix_record_is_keyed_by_member_count_and_kind,
    test_restrictions_are_the_results_of_the_smaller_system,
    test_resumed_search_equals_fresh_search,
    test_rising_reads_list_by_doubling,
    test_scan_matches_definition_on_random_masks,
    test_scan_matches_label_set_oracles,
    test_scan_sorted_and_complete,
    test_search_deeper_than_the_recursion_limit,
    test_search_equals_recursive_reference_in_shuffled_order,
    test_search_equals_recursive_reference_on_corpus,
    test_search_matches_naive_on_hand_built_systems,
    test_search_results_independent_of_call_order,
    test_systems_are_slices_of_one_scan,
    test_tangles_are_regular_profiles,
)

import sepdual
from sepdual import GroundSet, LowOrderSystem, _kernels, _native, tangles
from sepdual.verify import report_json, run_corpus

pytestmark = pytest.mark.usefixtures("python_walk")


def test_the_python_walk_is_forced(monkeypatch):
    """No search or scan of this module reaches the C code, and
    ``KERNEL_BACKEND`` says so."""
    walked = []
    walk = tangles._walk
    monkeypatch.setattr(tangles, "_walk", lambda *args: walked.append(args) or walk(*args))
    system = LowOrderSystem.from_members("x", GroundSet(range(2)), [(1, 3)])
    assert _native.load() is None and sepdual.KERNEL_BACKEND == "pure"
    assert _native.search(system.members, 2, "tangle", 0, ((),)) is None
    assert tangles._search(system, "tangle", 0, ((),)) == ((True,),)
    assert len(walked) == 1
    assert _native.scan((1, 3), 2, False, None) is None
    assert len(_kernels.scan_members((1, 3), 2)) == (3**2 - 1) // 2


def test_the_corpus_report_is_pinned_on_the_python_code():
    """The whole certification run with no extension, every search on the
    Python walk and every scan on the Python scan, prints the pinned
    report."""
    report = report_json(run_corpus())
    assert hashlib.sha256(report.encode()).hexdigest() == CORPUS_REPORT_SHA256
