"""Signed-graph algebra: products, vector-valued switching, and exact
balancing dimension, with a mechanical claim-verification suite."""

from .bdim import (
    BdimCapExceededError,
    BdimResult,
    DimensionMismatchError,
    InvalidSwitchingError,
    KSwitching,
    OracleGuardError,
    apply_k_switching,
    bdim_oracle,
    bdim_search,
    has_k_positive_bruteforce,
    inner_sign,
    is_k_positive,
)
from .core import (
    DuplicateEdgeError,
    GraphError,
    LoopEdgeError,
    NotACycleError,
    SignedGraph,
    SignError,
    SwitchingError,
    VertexRangeError,
    all_negative_complete,
    all_positive_complete,
    antibalanced_complete,
    apply_switching,
    build_graph,
    components,
    cycle_sign,
    induced_subgraph,
    is_all_positive,
    is_antibalanced,
    is_balanced,
    is_switching_equivalent,
    negate,
    null_graph,
    path_graph,
    unbalanced_cycle,
)
from .documents import DocumentError, GraphDocument, WitnessDocument, to_dot
from .products import (
    bcd_lex,
    cartesian,
    flat_to_pair,
    hg_lex,
    pair_labels,
    pair_to_flat,
    product,
    strong,
    tensor,
)
from .tables import TableParameterError, table_witness
from .verify import (
    Claim,
    ClaimReport,
    UnknownClaimError,
    claim_description,
    format_report,
    recheck_counterexample,
    report_record,
    run_claims,
)

__version__ = "0.1.0"
