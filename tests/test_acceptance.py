"""Acceptance suite: one test per exit criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL verdict line (visible with ``pytest -s``
or in captured output on failure) before asserting.
"""

import math

import numpy as np
from oracle import band_matrices, dense, plain_ladder

from qdgates.cli import main
from qdgates.fockspace import FunctionChoice, TruncatedFockSpace
from qdgates.gates import (
    apply_hadamard,
    apply_phase_shift,
    check_cnot_condition,
    check_not_condition,
    cnot_truth_table,
)
from qdgates.qnumber import DeformationParam, q_factorial, q_number
from qdgates.qubits import norm_ratio_experiment, qubit_state
from qdgates.report import infer_psi_from_norm, run_algebra_checks

S_GRID = (0.1, 0.5, 0.9)
AUDIT_SPACE = TruncatedFockSpace(16)
QUBIT_SPACE = TruncatedFockSpace(4)


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance {number:02d}] {label}: {status}{suffix}")
    assert ok, f"acceptance criterion {number} failed: {label} {suffix}"


def test_01_ladder_limit_recovery():
    strengths = (1e-2, 1e-3, 1e-4)
    gaps = []
    for s in strengths:
        p = DeformationParam(s)
        a, a_dag, _ = plain_ladder(AUDIT_SPACE)
        a_q, a_q_dag, _ = band_matrices(AUDIT_SPACE, p, 1.0, 1.0)
        gaps.append(max(np.max(np.abs(a_q - a)), np.max(np.abs(a_q_dag - a_dag))))
    at_least_linear = all(
        gaps[i + 1] <= gaps[i] * (strengths[i + 1] / strengths[i]) * 1.5
        for i in range(len(gaps) - 1)
    )
    ok = at_least_linear and gaps[-1] < 1e-3
    _verdict(1, "deformed ladder matrices converge to plain ones", ok,
             "gaps " + ", ".join(f"{g:.3e}" for g in gaps))


def test_02_algebra_audit_at_unit_functions():
    worst = 0.0
    for s in S_GRID:
        reports = run_algebra_checks(
            AUDIT_SPACE, DeformationParam(s), FunctionChoice.unit(), 1e-12, (1.0, 0.0, 1.0)
        )
        worst = max(worst, max(r.residual for r in reports))
    _verdict(2, "all four operator identities below 1e-12", worst < 1e-12, f"worst {worst:.3e}")


def test_03_flip_condition_verdicts():
    ok = True
    failing_floor = math.inf
    for s in S_GRID:
        p = DeformationParam(s)
        for value in (1.0, p.q, p.q**3):
            rep = check_not_condition(p, FunctionChoice(psi1=value, psi2=value), 1e-10)
            ok = ok and rep.passed
        rep = check_not_condition(p, FunctionChoice(psi1=2.0, psi2=1.0), 1e-10)
        ok = ok and (not rep.passed) and rep.residual > 1e-3
        failing_floor = min(failing_floor, rep.residual)
    _verdict(3, "flip condition: equal pairs realizable, (2, 1) fails loudly", ok,
             f"failing residual {failing_floor:.3e}")


def test_04_controlled_flip_condition_is_an_identity():
    worst = 0.0
    for s in S_GRID:
        p = DeformationParam(s)
        for beta1 in (1 / p.q, 1.0, p.q):
            for beta2 in (1 / p.q, 1.0, p.q):
                rep = check_cnot_condition(p, beta1, beta2, 1e-12)
                worst = max(worst, rep.residual)
    _verdict(4, "target-swap condition residual below 1e-12 for 9 function pairs",
             worst < 1e-12, f"worst {worst:.3e}")


def test_05_controlled_flip_truth_table():
    plain = cnot_truth_table()
    exact = all(r.amplitude == 1.0 and r.off_support == 0.0 for r in plain)
    transitions = [r.expected_bits for r in plain] == [(0, 0), (0, 1), (1, 1), (1, 0)]
    p = DeformationParam(0.5)
    dressed = cnot_truth_table(
        p=p,
        choice_a=FunctionChoice(psi1=p.q, psi2=p.q),
        choice_b=FunctionChoice(beta1=p.q**2, beta2=p.q**2),
    )
    magnitudes = [abs(r.amplitude) for r in dressed]
    spread = max(magnitudes) - min(magnitudes)
    ok = exact and transitions and spread < 1e-12
    _verdict(5, "truth table exact when plain, single common scalar when dressed",
             ok, f"ratio spread {spread:.3e}")


def test_06_superposition_and_phase_sanity():
    down, up = qubit_state(0, QUBIT_SPACE), qubit_state(1, QUBIT_SPACE)
    double_gap = max(
        np.max(np.abs(dense(apply_hadamard(apply_hadamard(state))) - dense(state)))
        for state in (down, up)
    )
    overlap = abs(apply_hadamard(down).overlap(apply_hadamard(up)))
    norm_gap = max(
        abs(apply_phase_shift(apply_hadamard(down), float(theta)).norm() - 1.0)
        for theta in np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    )
    ok = double_gap < 1e-13 and overlap < 1e-13 and norm_gap < 1e-13
    _verdict(6, "superposition gate squares to identity, phase preserves norm", ok,
             f"double {double_gap:.3e}, overlap {overlap:.3e}, norm {norm_gap:.3e}")


def test_07_norm_ratio_matches_exactly_one_law():
    p = DeformationParam(0.5)
    laws = set()
    worst = 0.0
    ambiguous = False
    for psi, beta in ((p.q, 1.0), (p.q, p.q), (p.q**2, p.q**2)):
        r = norm_ratio_experiment(p, psi, beta)
        d_product = abs(r.measured - r.prediction_product)
        d_sqrt = abs(r.measured - r.prediction_sqrt)
        matches = (d_product <= 1e-10, d_sqrt <= 1e-10)
        ambiguous = ambiguous or sum(matches) != 1
        worst = max(worst, min(d_product, d_sqrt))
        laws.add(r.matched_law)
    # snapshot: the constructed states obey the product law, not its square root
    ok = not ambiguous and laws == {"product"}
    _verdict(7, "squared-norm ratio equals psi*beta (product law pinned)", ok,
             f"worst distance {worst:.3e}")


def test_08_inference_round_trip():
    ok = True
    worst = 0.0
    for s in S_GRID:
        p = DeformationParam(s)
        beta = p.q
        for psi in (1 / p.q, 1.0, p.q**0.5, p.q, p.q**2):
            ratio = norm_ratio_experiment(p, psi, beta).measured
            inferred = infer_psi_from_norm(ratio, beta, p).inferred_psi
            worst = max(worst, abs(inferred - psi) / psi)
        for n_hat in (1, 2):
            zero = infer_psi_from_norm(p.q**n_hat, 1.0, p, n_hat=n_hat)
            one = infer_psi_from_norm(p.q ** (n_hat - 1), 1.0, p, n_hat=n_hat)
            ok = ok and zero.classified_n_prime == 0 and one.classified_n_prime == 1
    ok = ok and worst <= 1e-10
    _verdict(8, "norm-ratio inversion recovers the dressing and its encoding", ok,
             f"worst relative error {worst:.3e}")


def test_09_sweep_determinism(tmp_path):
    args = ["sweep", "--s-grid", "0.1,0.5,0.9", "--psi", "q", "--beta", "q^2", "--cutoff", "16"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code_a = main(args + ["--out", str(first)])
    code_b = main(args + ["--out", str(second)])
    ok = code_a == 0 and code_b == 0 and first.read_bytes() == second.read_bytes()
    _verdict(9, "repeated sweeps serialize byte-identically", ok,
             f"{first.stat().st_size} bytes")


def test_10_factorial_oracle_equivalence():
    worst = 0.0
    for s in S_GRID:
        p = DeformationParam(s)
        for n in range(13):
            oracle = 1.0
            for k in range(1, n + 1):
                oracle *= q_number(k, p)
            value = q_factorial(n, p)
            worst = max(worst, abs(value - oracle) / abs(oracle))
    _verdict(10, "deformed factorial equals the loop product of deformed integers",
             worst <= 1e-13, f"worst relative error {worst:.3e}")
