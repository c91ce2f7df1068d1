"""sepscope: entanglement detection for bipartite quantum states.

Decides entanglement via the realignment (computable cross norm) criterion
and the positive-partial-transpose criterion, bounds the fidelity with
maximally entangled states, and probes how these quantities behave under
elementary local operations.
"""

from .criteria import (
    CriterionReport,
    ExtendedCcnResult,
    FactorizedState,
    FidelityResult,
    PptResult,
    ccn_max_disordered,
    distillable_by_fidelity,
    extended_ccn,
    fidelity_lower,
    fidelity_optimize,
    fidelity_two_qubit_max_disordered,
    full_report,
    full_reports,
    ppt_criterion,
    realigned_trace,
    single_factor,
    tensor_pair,
)
from .hsbasis import (
    PAULI,
    HSDecomposition,
    decompose,
    spin_basis,
    spin_matrix,
    t_trace_norm,
)
from .linalg import (
    DensityMatrix,
    DimensionError,
    InvariantError,
    NumericError,
    TraceClassOperator,
    frobenius_norm,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    tensor,
    trace_norm,
    trace_out,
)
from .locc import (
    AddAncilla,
    LocalUnitary,
    LvnMeasurement,
    ProbeResult,
    TraceOutFactor,
    apply,
    monotonicity_probe,
    pinching,
)
from .realign import RealignedMatrix, ccn_value, realign
from .states import (
    BellDiagonal,
    Counterexample,
    CounterexampleSpectra,
    FamilySpec,
    Isotropic,
    MaxDisordered,
    PureSchmidt,
    RandomState,
    RhoP,
    Werner,
    bell_vectors,
    counterexample_matrix,
    counterexample_spectra,
    format_family,
    isotropic_matrix,
    make_state,
    param_kind,
    parse_family,
    psi_plus,
    random_density_matrix,
    random_max_disordered,
    random_unitary,
    replace_param,
    rho_p_matrix,
    rho_p_threshold,
    swap_operator,
    werner_matrix,
)

__version__ = "0.1.0"
