"""Dual separation systems on bipartite incidence data.

Order functions, majority shifts between the two sides and the edge set,
tangles and regular profiles with exhaustive enumeration, an executable
verifier for the duality theorems, and the chain/boundary view with its
inner product and decider search.
"""

__version__ = "0.1.0"

from . import _native


def __getattr__(name):
    # KERNEL_BACKEND names the backend of the next search walk and scan:
    # "native" when the extension of ``_native`` loads (reading this builds
    # it if missing and loads it), else "pure"; the other bit kernels of
    # ``_kernels`` are pure Python.
    if name == "KERNEL_BACKEND":
        return "native" if _native.load() else "pure"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


from .bigraph import (
    BipartiteGraph,
    IncidenceRecord,
    check_duality_wellformedness,
    from_dict,
    from_edges,
    from_transactions,
    gen_planted,
    gen_random,
    read_transactions_csv,
)
from .errors import (
    CapExceeded,
    CoverViolation,
    InversePairPresent,
    LabelClash,
    NotAPartition,
    ParseError,
    SepdualError,
    SideMismatch,
)
from .groundset import GroundSet
from .homology import (
    BoundaryMatrix,
    disc_fixture,
    find_decider,
    kernel_basis,
    norm_squared,
    orientation_to_chain,
    structural_submodularity_check,
    tangle_kernel_check,
)
from .orders import (
    HalfInt,
    order_of,
    order_side_edge_form,
)
from .separations import (
    Sep,
    canonical,
    inf,
    inverse,
    leq,
    make_sep,
    sup,
)
from .shifts import (
    edges_to_side,
    sep_to_edges,
    shift_partition,
    shift_side,
)
from .tangles import (
    LowOrderSystem,
    Orientation,
    TangleReport,
    build_system,
    check_profile,
    check_regular,
    check_tangle,
    enumerate_orientations,
    enumerate_tangles,
    is_regular_profile,
)
from .verify import TheoremCase, corpus, run_corpus, run_theorem
