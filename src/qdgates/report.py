"""Sweep orchestration, the dressing-inference demo, and report serialization.

A sweep runs every registered check at every grid point and collects flat
report entries.  Failures never abort a sweep: the known mismatch of the
number-product relation away from unit dressing is scientific content and is
recorded as an expected failure.  Serialization is bit-deterministic: fixed
schema, sorted keys, canonical row order, no timestamps.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import __version__ as _tool_version
from .audit import (
    ALGEBRA_CHECK_IDS,
    DEFAULT_SHIFT_POLY,
    MIN_AUDIT_CUTOFF,
    NUMBER_PRODUCTS,
    run_algebra_checks,
)
from .fockspace import CONSTANT_ONE, FunctionChoice, FunctionFamily, TruncatedFockSpace
from .gates import TruthTableRow, check_cnot_condition, check_not_condition, cnot_truth_table
from .qnumber import DeformationParam
from .qubits import QUBIT_CUTOFF, norm_ratio_experiment

SCHEMA_VERSION = "1"

NOT_CONDITION = "not_condition"
CNOT_CONDITION = "cnot_condition"
CNOT_TABLE = "cnot_table"
CNOT_TABLE_DEFORMED = "cnot_table_deformed"
NORM_RATIO = "norm_ratio"

# The layers a sweep can run; `qdgates audit`, `gates` and `states` run one each.
ALGEBRA_LAYER = "algebra"
GATE_LAYER = "gates"
NORM_RATIO_LAYER = "norm_ratio"
SWEEP_LAYERS = (ALGEBRA_LAYER, GATE_LAYER, NORM_RATIO_LAYER)

REGISTERED_CHECKS = (
    "qcommutator",
    "number_commutators",
    "number_products",
    "shift_rule",
    NOT_CONDITION,
    CNOT_CONDITION,
    CNOT_TABLE,
    CNOT_TABLE_DEFORMED,
    NORM_RATIO,
)

ENTRY_COLUMNS = (
    "check_id",
    "s",
    "cutoff",
    "psi1",
    "psi2",
    "beta1",
    "beta2",
    "residual",
    "pass",
    "note",
)

EXPECTED_FAIL_MARK = "expected failure"

# Residual recorded when a check could not produce one (domain error); such
# rows fail but never abort the sweep.
ERROR_RESIDUAL = -1.0

LAW_PRODUCT = "product"
LAW_SQRT = "sqrt_product"
# Default inversion law: the one the constructed states are measured to obey,
# pinned by the snapshot test in the suite.
DEFAULT_LAW = LAW_PRODUCT


class ConfigError(ValueError):
    """Sweep configuration rejected; carries every problem at once."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _first_bad_point(family: FunctionFamily, s_grid: Sequence[float]) -> float | None:
    """The first valid grid strength at which ``family`` is not a finite
    positive float (it overflows, underflows to 0 or is not a number)."""
    for s in s_grid:
        if not 0.0 < s <= 1.0:
            continue  # reported as a grid problem
        try:
            value = family.evaluate(DeformationParam(s).q)
        except OverflowError:
            return s
        if not (math.isfinite(value) and value > 0):
            return s
    return None


@dataclass(frozen=True)
class SweepConfig:
    s_grid: tuple[float, ...]
    psi_family: FunctionFamily = field(default_factory=FunctionFamily)
    beta_family: FunctionFamily = field(default_factory=FunctionFamily)
    cutoff: int = 16
    tolerance: float = 1e-10
    output_format: str = "json"

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_grid", tuple(float(s) for s in self.s_grid))
        self.validate()

    def validate(self) -> None:
        problems = []
        if not self.s_grid:
            problems.append("s_grid must be nonempty")
        if any(not (0.0 < s <= 1.0) for s in self.s_grid):
            problems.append("s_grid values must lie in (0, 1]")
        if any(b <= a for a, b in zip(self.s_grid, self.s_grid[1:])):
            problems.append("s_grid must be strictly increasing")
        for name, family in (("psi_family", self.psi_family), ("beta_family", self.beta_family)):
            s = _first_bad_point(family, self.s_grid)
            if s is not None:
                problems.append(
                    f"{name} {family.label()} is not a finite positive float at s={s:g}"
                )
        if not isinstance(self.cutoff, int) or self.cutoff < MIN_AUDIT_CUTOFF:
            problems.append(f"cutoff must be an integer >= {MIN_AUDIT_CUTOFF}")
        if not (isinstance(self.tolerance, (int, float)) and self.tolerance > 0):
            problems.append("tolerance must be positive")
        if self.output_format not in ("json", "csv"):
            problems.append("output_format must be 'json' or 'csv'")
        if problems:
            raise ConfigError(problems)

    def to_payload(self) -> dict:
        return {
            "s_grid": list(self.s_grid),
            "psi_family": {"kind": self.psi_family.kind, "exponent": self.psi_family.exponent},
            "beta_family": {"kind": self.beta_family.kind, "exponent": self.beta_family.exponent},
            "cutoff": self.cutoff,
            "tolerance": self.tolerance,
            "output_format": self.output_format,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepConfig":
        def family(d) -> FunctionFamily:
            if isinstance(d, str):
                return FunctionFamily.parse(d)
            return FunctionFamily(d.get("kind", CONSTANT_ONE), d.get("exponent", 0.0))

        if "s_grid" not in payload:
            raise ConfigError(["config must define s_grid"])
        return cls(
            s_grid=tuple(payload["s_grid"]),
            psi_family=family(payload.get("psi_family", {"kind": CONSTANT_ONE})),
            beta_family=family(payload.get("beta_family", {"kind": CONSTANT_ONE})),
            cutoff=int(payload.get("cutoff", 16)),
            tolerance=float(payload.get("tolerance", 1e-10)),
            output_format=str(payload.get("output_format", "json")),
        )


@dataclass(frozen=True)
class ReportEntry:
    check_id: str
    s: float
    cutoff: int
    psi1: float
    psi2: float
    beta1: float
    beta2: float
    residual: float
    passed: bool
    note: str = ""

    def expected_pass(self) -> bool:
        return EXPECTED_FAIL_MARK not in self.note

    def to_payload(self) -> dict:
        return {
            "check_id": self.check_id,
            "s": self.s,
            "cutoff": self.cutoff,
            "psi1": self.psi1,
            "psi2": self.psi2,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "residual": self.residual,
            "pass": self.passed,
            "note": self.note,
        }


@dataclass(frozen=True)
class NormRatioSample:
    s: float
    psi: float
    beta: float
    measured: float
    prediction_product: float
    prediction_sqrt: float
    matched_law: str

    def to_payload(self) -> dict:
        return {
            "s": self.s,
            "psi": self.psi,
            "beta": self.beta,
            "measured": self.measured,
            "prediction_product": self.prediction_product,
            "prediction_sqrt": self.prediction_sqrt,
            "matched_law": self.matched_law,
        }


@dataclass(frozen=True)
class SweepReport:
    schema_version: str
    tool_version: str
    config: SweepConfig
    entries: tuple[ReportEntry, ...]
    norm_ratio: tuple[NormRatioSample, ...]
    summary: dict

    def unexpected_failures(self) -> int:
        return int(self.summary["unexpected_failures"])

    def to_payload(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "config": self.config.to_payload(),
            "entries": [e.to_payload() for e in self.entries],
            "norm_ratio": [r.to_payload() for r in self.norm_ratio],
            "summary": self.summary,
        }


def _summarize(entries: Iterable[ReportEntry]) -> dict:
    per_check: dict[str, dict[str, int]] = {}
    unexpected = 0
    for e in entries:
        bucket = per_check.setdefault(e.check_id, {"pass": 0, "fail": 0})
        bucket["pass" if e.passed else "fail"] += 1
        if not e.passed and e.expected_pass():
            unexpected += 1
    return {
        "per_check": per_check,
        "total_pass": sum(b["pass"] for b in per_check.values()),
        "total_fail": sum(b["fail"] for b in per_check.values()),
        "unexpected_failures": unexpected,
    }


def build_report(
    config: SweepConfig,
    entries: list[ReportEntry],
    norm_ratio: list[NormRatioSample] | None = None,
) -> SweepReport:
    """Assemble a report in canonical order (grid point, then check id)."""
    order = {s: i for i, s in enumerate(config.s_grid)}
    entries = sorted(entries, key=lambda e: (order[e.s], e.check_id))
    return SweepReport(
        schema_version=SCHEMA_VERSION,
        tool_version=_tool_version,
        config=config,
        entries=tuple(entries),
        norm_ratio=tuple(norm_ratio or ()),
        summary=_summarize(entries),
    )


def _entry_from_condition(report, note: str = "") -> ReportEntry:
    c = report.choice
    return ReportEntry(
        check_id=report.condition_id,
        s=report.s,
        cutoff=report.cutoff,
        psi1=c.psi1,
        psi2=c.psi2,
        beta1=c.beta1,
        beta2=c.beta2,
        residual=report.residual,
        passed=report.passed,
        note=note,
    )


def _point(config: SweepConfig, s: float) -> tuple[DeformationParam, FunctionChoice]:
    p = DeformationParam(s)
    return p, FunctionChoice.from_families(config.psi_family, config.beta_family, p.q)


def _error_entry(check_id: str, s: float, cutoff: int, choice: FunctionChoice, exc) -> ReportEntry:
    return ReportEntry(
        check_id, s, cutoff, choice.psi1, choice.psi2, choice.beta1, choice.beta2,
        ERROR_RESIDUAL, False, f"error: {exc}",
    )


def algebra_entries(
    config: SweepConfig, p: DeformationParam, choice: FunctionChoice
) -> list[ReportEntry]:
    s = p.s
    space = TruncatedFockSpace(config.cutoff)
    try:
        reports = run_algebra_checks(space, p, choice, config.tolerance, DEFAULT_SHIFT_POLY)
    except ValueError as exc:
        return [_error_entry(cid, s, config.cutoff, choice, exc) for cid in ALGEBRA_CHECK_IDS]
    out = []
    for rep in reports:
        note = ""
        if rep.condition_id == NUMBER_PRODUCTS and choice.psi1 * choice.psi2 != 1.0:
            note = (
                f"{EXPECTED_FAIL_MARK}: the dressed products match the deformed "
                f"number spectrum only when psi1*psi2 == 1"
            )
        out.append(_entry_from_condition(rep, note))
    return out


def gate_entries(
    config: SweepConfig,
    p: DeformationParam,
    choice: FunctionChoice,
    plain_rows: list[TruthTableRow],
) -> list[ReportEntry]:
    """Gate rows at one grid point; ``plain_rows`` is the plain CNOT table,
    which does not depend on s and is computed once per sweep."""
    s = p.s
    tol = config.tolerance
    out = []

    def entry(check_id, residual, passed, note=""):
        return ReportEntry(
            check_id, s, QUBIT_CUTOFF, choice.psi1, choice.psi2, choice.beta1,
            choice.beta2, residual, passed, note,
        )

    try:
        not_rep = check_not_condition(p, choice, tol)
        out.append(entry(NOT_CONDITION, not_rep.residual, not_rep.realizable))
    except ValueError as exc:
        out.append(_error_entry(NOT_CONDITION, s, QUBIT_CUTOFF, choice, exc))

    try:
        cnot_rep = check_cnot_condition(p, choice.beta1, choice.beta2, tol)
        out.append(entry(CNOT_CONDITION, cnot_rep.residual, cnot_rep.realizable))
    except ValueError as exc:
        out.append(_error_entry(CNOT_CONDITION, s, QUBIT_CUTOFF, choice, exc))

    residual = max(max(abs(r.amplitude - 1.0), r.off_support) for r in plain_rows)
    out.append(entry(CNOT_TABLE, residual, residual <= tol))

    try:
        dressed_rows = cnot_truth_table(deformed=True, p=p, choice_a=choice, choice_b=choice)
        magnitudes = [abs(r.amplitude) for r in dressed_rows]
        spread = max(magnitudes) - min(magnitudes)
        off = max(r.off_support for r in dressed_rows)
        residual = max(spread, off)
        note = f"common row amplitude {magnitudes[0]:.17g}"
        out.append(entry(CNOT_TABLE_DEFORMED, residual, residual <= tol, note))
    except ValueError as exc:
        out.append(_error_entry(CNOT_TABLE_DEFORMED, s, QUBIT_CUTOFF, choice, exc))
    return out


def norm_ratio_entries(
    config: SweepConfig, p: DeformationParam, choice: FunctionChoice
) -> tuple[list[ReportEntry], list[NormRatioSample]]:
    s = p.s
    space = TruncatedFockSpace(QUBIT_CUTOFF)
    try:
        result = norm_ratio_experiment(1, 0, p, choice.psi1, choice.beta1, space)
    except ValueError as exc:
        return [_error_entry(NORM_RATIO, s, QUBIT_CUTOFF, choice, exc)], []
    sample = NormRatioSample(
        s=s,
        psi=choice.psi1,
        beta=choice.beta1,
        measured=result.measured,
        prediction_product=result.prediction_product,
        prediction_sqrt=result.prediction_sqrt,
        matched_law=result.matched_law(),
    )
    note = (
        f"matches {sample.matched_law}; measured {result.measured:.17g}, "
        f"product {result.prediction_product:.17g}, sqrt {result.prediction_sqrt:.17g}"
    )
    distance = result.distance_to_matched()
    entry = ReportEntry(
        NORM_RATIO, s, QUBIT_CUTOFF, choice.psi1, choice.psi2, choice.beta1,
        choice.beta2, distance, distance <= config.tolerance, note,
    )
    return [entry], [sample]


def run_sweep(config: SweepConfig, layers: Sequence[str] = SWEEP_LAYERS) -> SweepReport:
    """The checks of ``layers`` (default: all) at every grid point;
    deterministic for a fixed config."""
    entries: list[ReportEntry] = []
    samples: list[NormRatioSample] = []
    plain_rows = cnot_truth_table() if GATE_LAYER in layers else []
    for s in config.s_grid:
        p, choice = _point(config, s)
        if ALGEBRA_LAYER in layers:
            entries.extend(algebra_entries(config, p, choice))
        if GATE_LAYER in layers:
            entries.extend(gate_entries(config, p, choice, plain_rows))
        if NORM_RATIO_LAYER in layers:
            point_entries, point_samples = norm_ratio_entries(config, p, choice)
            entries.extend(point_entries)
            samples.extend(point_samples)
    return build_report(config, entries, samples)


@dataclass(frozen=True)
class PsiInference:
    """Dressing value recovered from a measured norm ratio, classified against
    the two encodings q**n_hat (deformed occupation 0) and q**(n_hat - 1)
    (deformed occupation 1)."""

    inferred_psi: float
    n_hat: int
    classified_n_prime: int
    log_distance: float
    law: str


def infer_psi_from_norm(
    measured_norm_ratio: float,
    beta: float,
    p: DeformationParam,
    n_hat: int = 1,
    law: str = DEFAULT_LAW,
) -> PsiInference:
    """Invert the chosen norm-ratio law for the control dressing value.

    The law is an explicit parameter because the ratio admits two readings
    (psi*beta, or its square root); the default is the one the constructed
    states actually satisfy.
    """
    if measured_norm_ratio <= 0 or beta <= 0:
        raise ValueError("measured ratio and beta must be positive")
    if law == LAW_PRODUCT:
        psi = measured_norm_ratio / beta
    elif law == LAW_SQRT:
        psi = measured_norm_ratio**2 / beta
    else:
        raise ValueError(f"unknown inversion law {law!r}; use {LAW_PRODUCT!r} or {LAW_SQRT!r}")
    log_psi = math.log(psi)
    d0 = abs(log_psi - n_hat * p.s)
    d1 = abs(log_psi - (n_hat - 1) * p.s)
    classified = 0 if d0 <= d1 else 1
    return PsiInference(psi, n_hat, classified, min(d0, d1), law)


def serialize(report: SweepReport, output_format: str | None = None) -> bytes:
    """Deterministic bytes for a report; identical configs give identical bytes."""
    fmt = output_format or report.config.output_format
    if fmt == "json":
        return (json.dumps(report.to_payload(), sort_keys=True, indent=2) + "\n").encode("utf-8")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ENTRY_COLUMNS)
        for e in report.entries:
            writer.writerow(
                [
                    e.check_id,
                    f"{e.s:.17g}",
                    e.cutoff,
                    f"{e.psi1:.17g}",
                    f"{e.psi2:.17g}",
                    f"{e.beta1:.17g}",
                    f"{e.beta2:.17g}",
                    f"{e.residual:.17g}",
                    "true" if e.passed else "false",
                    e.note,
                ]
            )
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unsupported format {fmt!r}; use 'json' or 'csv'")


def parse_report(blob: bytes) -> SweepReport:
    """Rebuild a report from its JSON serialization (the inverse of serialize)."""
    payload = json.loads(blob.decode("utf-8"))
    entries = tuple(
        ReportEntry(
            check_id=e["check_id"],
            s=e["s"],
            cutoff=e["cutoff"],
            psi1=e["psi1"],
            psi2=e["psi2"],
            beta1=e["beta1"],
            beta2=e["beta2"],
            residual=e["residual"],
            passed=e["pass"],
            note=e.get("note", ""),
        )
        for e in payload["entries"]
    )
    samples = tuple(NormRatioSample(**r) for r in payload.get("norm_ratio", []))
    return SweepReport(
        schema_version=payload["schema_version"],
        tool_version=payload["tool_version"],
        config=SweepConfig.from_payload(payload["config"]),
        entries=entries,
        norm_ratio=samples,
        summary=payload["summary"],
    )
