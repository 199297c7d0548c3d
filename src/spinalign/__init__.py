"""Align a candidate spin chain to a hidden target with one similarity query.

The library covers the full pipeline: closed-form chain ground-state site
directions (verified by exact diagonalization of small chains), Bloch-vector
similarity between chains, the optimal global z-rotation derived from a
lookup table, and budgeted black-box oracles (exact, noisy,
measurement-sampled) that keep the target hidden.

The names imported here are the public surface, and each argument kind they take has one
rule in ``errors``; ``tests/test_surface.py`` gives every name a row and holds the surface
to those rules. Kernels whose callers check their inputs stay in their modules.
"""

from .chain import (ChainSpec, ParameterGrid, build_hamiltonian, enumerate_targets, ground_state,
                    product_ground_directions, site_cosines)
from .errors import (DENSE_SITE_CAP, CapacityError, IndeterminateOptimumError, QueryBudgetError,
                     SpinAlignError, UndefinedDirectionError, ValidationError)
# The verifier modules load with the package: the traced benchmark (bench/spans.py) needs both.
from .hilbert import (DensityMatrix, GroundState, PAULI, StateVector, apply_unitary, bloch_vector,
                      hermitian_ground_state, mask_from_sites, partial_trace, site_operator)
from .oracle import Oracle, OracleKind, make_oracle, query_exact, query_measured, query_noisy
from .protocol import (LookupTable, ProtocolReport, build_table, chi_opt, delta_f_planar,
                       global_rotation, lookup_chi_batch, nearest_rows, nearest_runs,
                       rotate_directions, run_protocol, sweep_exact, target_angles)
from .similarity import (SubsetFunctionKind, cos_theta, enumerate_bipartition_subsets,
                         purity_term, similarity_chain, similarity_general)

__version__ = "0.1.0"
