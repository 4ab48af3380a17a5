"""The search tests of ``test_tangles`` and the deep CLI search of
``test_cli`` again, on the Python walk.

Those modules run them on the walk the package picks, the C walk of
``sepdual._native`` wherever it is built.  Here the ``python_walk`` fixture
makes the C walk's loader find no library, so every search runs
``tangles._walk``, the fallback and the reference of the C walk.
"""

import pytest
from test_cli import (  # noqa: F401 - collected again in this module
    test_tangles_search_deeper_than_the_recursion_limit,
)
from test_tangles import (  # noqa: F401 - collected again in this module
    test_capped_system_is_never_decoded,
    test_member_cap,
    test_member_cap_checked_before_empty_prefix,
    test_naive_oracle_agreement,
    test_naive_oracle_agreement_profiles,
    test_prefix_record_is_keyed_by_member_count_and_kind,
    test_restrictions_are_the_results_of_the_smaller_system,
    test_resumed_search_equals_fresh_search,
    test_search_deeper_than_the_recursion_limit,
    test_search_equals_recursive_reference_in_shuffled_order,
    test_search_equals_recursive_reference_on_corpus,
    test_search_matches_naive_on_hand_built_systems,
    test_search_results_independent_of_call_order,
    test_tangles_are_regular_profiles,
)

import sepdual
from sepdual import GroundSet, LowOrderSystem, _native, tangles

pytestmark = pytest.mark.usefixtures("python_walk")


def test_the_python_walk_is_forced(monkeypatch):
    """No search of this module reaches the C walk, and ``KERNEL_BACKEND``
    says so."""
    walked = []
    walk = tangles._walk
    monkeypatch.setattr(tangles, "_walk", lambda *args: walked.append(args) or walk(*args))
    system = LowOrderSystem.from_members("x", GroundSet(range(2)), [(1, 3)])
    assert _native.load() is None and sepdual.KERNEL_BACKEND == "pure"
    assert _native.search(system.members, 2, "tangle", 0, ((),)) is None
    assert tangles._search(system, "tangle", 0, ((),)) == ((True,),)
    assert len(walked) == 1
