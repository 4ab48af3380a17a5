"""Dual separation systems on bipartite incidence data.

Order functions, majority shifts between the two sides and the edge set,
tangles and regular profiles with exhaustive enumeration, an executable
verifier for the duality theorems, and the chain/boundary view with its
inner product and decider search.
"""

__version__ = "0.1.0"

#: The bit kernels (``sepdual._kernels``) have one implementation, in pure Python.
KERNEL_BACKEND = "pure"

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
    PreconditionViolated,
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
    move_edge_over,
    move_edge_to_middle,
    normalize_edge_sep,
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
