"""Genuine multipartite correlation quantifiers and decoherence sweeps."""

__version__ = "0.1.0"

from .linalg import (
    DEFAULT_TOL,
    DensityMatrix,
    PureState,
    Tolerances,
    kron_all,
    load_state,
    partial_trace,
    permute_subsystems,
    random_unitary,
    save_state,
    state_from_json,
    state_to_json,
)
from .entropy import (
    relative_entropy,
    shannon,
    total_correlation,
    von_neumann_entropy,
)
from .classical_search import (
    LocalBasisSet,
    SearchConfig,
    SearchResult,
    closest_classical_state,
    dephase,
    quantumness_in_basis,
)
from .genuine_correlations import (
    Bipartition,
    CorrelationReport,
    all_bipartitions,
    genuine_classical_Ck,
    genuine_classical_Cn,
    genuine_quantum_Qk,
    genuine_quantum_Qn,
    genuine_total_Ik,
    genuine_total_In,
    multipartite_quantum_Q,
)
from .channels import (
    SWAP_SYMMETRY,
    KrausChannel,
    amplitude_damping_kraus,
    appendix_golden_state,
    dilation,
    evolve_global,
    phase_damping_kraus,
    psi_minus,
    werner_state,
)
from .states import (
    fidelity,
    ghz,
    ppt_min_eigenvalue,
    w4,
)
from .experiments import (
    SUPPORTED_MEASURES,
    SuddenChangeReport,
    SweepSpec,
    detect_sudden_change,
    run_sweep,
    verify_anchors,
)
