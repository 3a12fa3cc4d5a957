"""Deformed oscillators on a truncated Fock space, the qubits built from
oscillator pairs, the logic gates acting on them, and a sweep harness that
audits every defining identity and gate-realizability condition numerically.
"""

__version__ = "0.1.0"

from .qnumber import DeformationParam, q_factorial, q_number
from .fockspace import (
    FunctionChoice,
    FunctionFamily,
    RadicandError,
    TruncatedFockSpace,
    f_value,
    ladder_band,
)
from .audit import (
    ConditionReport,
    check_number_commutators,
    check_number_products,
    check_qcommutator,
    check_shift_rule,
    run_algebra_checks,
)
from .qubits import (
    CaseIIOccupation,
    NormRatioResult,
    OscillatorPairState,
    TwoQubitState,
    case2_consistency_table,
    jm_state,
    norm_ratio_experiment,
    occupation_from_exponent,
    occupation_from_value,
    qubit_state,
    two_qubit_state,
    vacuum,
)
from .gates import (
    TruthTableRow,
    apply_cnot,
    apply_hadamard,
    apply_not,
    apply_phase_shift,
    check_cnot_condition,
    check_not_condition,
    cnot_truth_table,
)
from .report import (
    PsiInference,
    SweepConfig,
    SweepReport,
    infer_psi_from_norm,
    parse_report,
    run_sweep,
    serialize,
)

__all__ = [
    "DeformationParam",
    "q_number",
    "q_factorial",
    "TruncatedFockSpace",
    "FunctionChoice",
    "FunctionFamily",
    "RadicandError",
    "ladder_band",
    "f_value",
    "ConditionReport",
    "check_qcommutator",
    "check_number_commutators",
    "check_number_products",
    "check_shift_rule",
    "run_algebra_checks",
    "OscillatorPairState",
    "TwoQubitState",
    "CaseIIOccupation",
    "NormRatioResult",
    "vacuum",
    "qubit_state",
    "jm_state",
    "two_qubit_state",
    "norm_ratio_experiment",
    "occupation_from_value",
    "occupation_from_exponent",
    "case2_consistency_table",
    "TruthTableRow",
    "apply_not",
    "apply_hadamard",
    "apply_phase_shift",
    "apply_cnot",
    "check_not_condition",
    "check_cnot_condition",
    "cnot_truth_table",
    "SweepConfig",
    "SweepReport",
    "PsiInference",
    "run_sweep",
    "infer_psi_from_norm",
    "serialize",
    "parse_report",
]
