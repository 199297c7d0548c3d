"""Align a candidate spin chain to a hidden target with one similarity query.

The library covers the full pipeline: exact diagonalization of small
periodic chains, Bloch-vector similarity between chains, the optimal global
z-rotation derived from a precomputed lookup table, and budgeted black-box
oracles (exact, noisy, measurement-sampled) that keep the target hidden.
"""

from .chain import (
    ChainSpec,
    DEFAULT_GRID,
    ParameterGrid,
    build_hamiltonian,
    enumerate_targets,
    ground_state,
    product_ground_bloch,
    target_fields,
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
    Operator,
    PAULI,
    StateVector,
    apply_unitary,
    basis_state,
    hermitian_ground_state,
    kron,
    mask_from_sites,
    partial_trace,
    product_state,
    site_operator,
)
from .oracle import (
    MeasurementRecord,
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
    delta_f_general,
    delta_f_planar,
    global_rotation,
    lookup_chi,
    lookup_chi_batch,
    run_protocol,
)
from .similarity import (
    AngleProfile,
    BlochVector,
    SubsetFunctionKind,
    Z_AXIS,
    bloch_vector,
    cos_theta,
    enumerate_bipartition_subsets,
    purity_term,
    signed_theta,
    similarity_chain,
    similarity_general,
)

__version__ = "0.1.0"
