"""Align a candidate spin chain to a hidden target with one similarity query.

The library covers the full pipeline: closed-form chain ground-state site
directions (verified by exact diagonalization of small chains), Bloch-vector
similarity between chains, the optimal global z-rotation derived from a
lookup table, and budgeted black-box oracles (exact, noisy,
measurement-sampled) that keep the target hidden.
"""

from .chain import (
    ChainSpec,
    ParameterGrid,
    build_hamiltonian,
    enumerate_targets,
    ground_state,
    product_ground_directions,
)
from .errors import (
    CapacityError,
    IndeterminateOptimumError,
    QueryBudgetError,
    SpinAlignError,
    UndefinedDirectionError,
    ValidationError,
)
from .hilbert import (
    DENSE_SITE_CAP,
    DensityMatrix,
    GroundState,
    PAULI,
    StateVector,
    apply_unitary,
    bloch_vector,
    hermitian_ground_state,
    mask_from_sites,
    partial_trace,
    site_operator,
)
from .oracle import (
    Oracle,
    OracleKind,
    make_oracle,
    query_exact,
    query_measured,
    query_noisy,
)
from .protocol import (
    LookupTable,
    ProtocolReport,
    build_table,
    chi_opt,
    delta_f_planar,
    delta_f_sums,
    global_rotation,
    lookup_chi_batch,
    nearest_rows,
    nearest_runs,
    rotate_directions,
    run_protocol,
    sweep_exact,
    target_angles,
)
from .similarity import (
    SubsetFunctionKind,
    cos_theta,
    enumerate_bipartition_subsets,
    purity_term,
    signed_theta,
    similarity_chain,
    similarity_general,
    site_cosines,
)

__version__ = "0.1.0"
