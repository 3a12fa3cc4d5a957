"""Sweep orchestration, the dressing-inference demo, and report serialization.

A sweep runs every registered check at every grid point and collects flat
report entries, each from one row builder, :func:`_entry`, the only place a
residual becomes a verdict: a row passes when its residual, a finite
nonnegative float64, is at most ``tol``; a check that raises a domain error,
or measures a residual that is no such float, becomes an error row
(residual -1, fail) instead of aborting the sweep.  The known mismatch
of the number-product relation away from unit dressing is scientific content
and is recorded as an expected failure.  Serialization is bit-deterministic:
sorted keys, canonical row order, no timestamps.  The JSON report is one ``json.dumps`` of
a payload whose ``points`` hold each grid point's cells once, with the rows of its checks;
the CSV report is one row per check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from operator import itemgetter, ne
from typing import Iterable, NamedTuple, Sequence

from . import __version__ as _tool_version
from .audit import ALGEBRA_CHECK_IDS, MIN_AUDIT_CUTOFF, NUMBER_PRODUCTS
from .audit import _row_residual, algebra_residual_grid, float_residual
from .fockspace import CONSTANT_ONE, FunctionChoice, FunctionFamily, TruncatedFockSpace
from .gates import CNOT_CONDITION, NOT_CONDITION
from .gates import check_cnot_condition, check_not_condition, cnot_truth_table
from .qnumber import DeformationParam
from .qubits import QUBIT_CUTOFF, NormRatioResult, norm_ratio_experiment

SCHEMA_VERSION = "2"

CNOT_TABLE = "cnot_table"
CNOT_TABLE_DEFORMED = "cnot_table_deformed"
NORM_RATIO = "norm_ratio"

# The layers a sweep can run; `qdgates audit`, `gates` and `states` run one each.
ALGEBRA_LAYER = "algebra"
GATE_LAYER = "gates"
NORM_RATIO_LAYER = "norm_ratio"
SWEEP_LAYERS = (ALGEBRA_LAYER, GATE_LAYER, NORM_RATIO_LAYER)

REGISTERED_CHECKS = (
    *ALGEBRA_CHECK_IDS, NOT_CONDITION, CNOT_CONDITION, CNOT_TABLE, CNOT_TABLE_DEFORMED, NORM_RATIO
)

# The report's one column list, in ReportEntry field order.
ENTRY_COLUMNS = (
    "check_id", "s", "cutoff", "psi1", "psi2", "beta1", "beta2", "residual", "pass", "note"
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


def _first_bad_point(family: FunctionFamily, s_grid: Sequence[float]) -> str | None:
    """``"at s=..."`` for the first valid grid strength where ``family`` is not a finite positive
    normal float (it overflows, underflows to 0 or to a subnormal it names, or is no number)."""
    for s in s_grid:
        if not 0.0 < s <= 1.0:
            continue  # reported as a grid problem
        try:
            value = family.evaluate(DeformationParam(s).q)
        except OverflowError:
            value = math.inf
        if not (math.isfinite(value) and value >= sys.float_info.min):
            return f"at s={s:g}" + (f" ({value!r} is subnormal)" if 0 < value < math.inf else "")
    return None


def _is_number(value) -> bool:
    """An int or float from a JSON payload, not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
            where = _first_bad_point(family, self.s_grid)
            if where is not None:
                problems.append(f"{name} {family.label()} is not a finite positive float {where}")
        if not isinstance(self.cutoff, int) or self.cutoff < MIN_AUDIT_CUTOFF:
            problems.append(f"cutoff must be an integer >= {MIN_AUDIT_CUTOFF}")
        if not (isinstance(self.tolerance, (int, float)) and self.tolerance > 0):
            problems.append("tolerance must be positive")
        elif self.tolerance == math.inf:
            problems.append("tolerance must be finite")
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
        if not isinstance(payload, dict):
            raise ConfigError([f"config must be a JSON object, got {payload!r}"])
        s_grid = payload.get("s_grid")
        cutoff = payload.get("cutoff", 16)
        tolerance = payload.get("tolerance", 1e-10)
        families = {name: payload.get(name, "1") for name in ("psi_family", "beta_family")}
        problems = []
        if s_grid is None:
            problems.append("config must define s_grid")
        elif not (isinstance(s_grid, (list, tuple)) and all(map(_is_number, s_grid))):
            problems.append(f"s_grid must be a list of numbers, got {s_grid!r}")
        # int() and float() below would turn 16.5 into 16 and true into 1
        if not _is_number(cutoff) or (isinstance(cutoff, float) and not cutoff.is_integer()):
            problems.append(f"cutoff must be an integer, got {cutoff!r}")
        if not _is_number(tolerance):
            problems.append(f"tolerance must be a number, got {tolerance!r}")
        for name, d in families.items():
            if not (isinstance(d, str) or isinstance(d, dict) and _is_number(d.get("exponent", 0))):
                problems.append(f"{name} must be a family string or object, got {d!r}")
        if problems:
            raise ConfigError(problems)

        def family(d) -> FunctionFamily:
            if isinstance(d, str):
                return FunctionFamily.parse(d)
            return FunctionFamily(d.get("kind", CONSTANT_ONE), d.get("exponent", 0.0))

        return cls(
            s_grid=tuple(s_grid),
            psi_family=family(families["psi_family"]),
            beta_family=family(families["beta_family"]),
            cutoff=int(cutoff),
            tolerance=float(tolerance),
            output_format=str(payload.get("output_format", "json")),
        )


class ReportEntry(NamedTuple):
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


@dataclass(frozen=True)
class SweepReport:
    schema_version: str
    tool_version: str
    config: SweepConfig
    entries: tuple[ReportEntry, ...]
    norm_ratio: tuple[NormRatioResult, ...]
    summary: dict

    def unexpected_failures(self) -> int:
        return int(self.summary["unexpected_failures"])


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
    norm_ratio: list[NormRatioResult] | None = None,
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


def _entry(check_id, s, cutoff, choice, tolerance, measure) -> ReportEntry:
    """The one report row builder and pass rule: ``measure()`` gives
    ``(residual, note)``; a ValueError it raises, or one
    :func:`~qdgates.audit.float_residual` raises on its residual, becomes an
    error row."""
    try:
        raw, note = measure()
        residual = float_residual(check_id, raw)
        passed = residual <= tolerance
    except ValueError as exc:
        residual, passed, note = ERROR_RESIDUAL, False, f"error: {exc}"
    return ReportEntry(
        check_id, s, cutoff, choice.psi1, choice.psi2, choice.beta1, choice.beta2,
        residual, passed, note,
    )


def algebra_entries(
    config: SweepConfig, points: Sequence[tuple[DeformationParam, FunctionChoice]]
) -> list[ReportEntry]:
    """Algebra rows at every ``(p, choice)`` of ``points``, from one residual grid."""
    try:
        rows = algebra_residual_grid(TruncatedFockSpace(config.cutoff), points)
    except ValueError as exc:
        rows = [exc] * len(points)
    entries = []
    for (p, choice), row in zip(points, rows):
        for i, check_id in enumerate(ALGEBRA_CHECK_IDS):
            note = ""
            if check_id == NUMBER_PRODUCTS and not choice.psi1 == choice.psi2 == 1.0:
                note = (
                    f"{EXPECTED_FAIL_MARK}: the dressed products match the deformed "
                    f"number spectrum only when psi1 == psi2 == 1"
                )
            # _entry calls the measure at once, while row, i and note are this row's
            measure = lambda: (_row_residual(row, i), note)
            entries.append(_entry(check_id, p.s, config.cutoff, choice, config.tolerance, measure))
    return entries


def gate_entries(
    config: SweepConfig, p: DeformationParam, choice: FunctionChoice, plain_residual: float
) -> list[ReportEntry]:
    """Gate rows at one grid point; ``plain_residual`` is the plain CNOT table's,
    which does not depend on s and is computed once per sweep."""
    tol = config.tolerance

    def deformed_table():
        rows = cnot_truth_table(p, choice, choice)
        magnitudes = [abs(r.amplitude) for r in rows]
        spread = max(magnitudes) - min(magnitudes)
        residual = max(spread, max(r.off_support for r in rows))
        return residual, f"common row amplitude {magnitudes[0]:.17g}"

    measures = {
        NOT_CONDITION: lambda: (check_not_condition(p, choice), ""),
        CNOT_CONDITION: lambda: (check_cnot_condition(p, choice.beta1, choice.beta2), ""),
        CNOT_TABLE: lambda: (plain_residual, ""),
        CNOT_TABLE_DEFORMED: deformed_table,
    }
    return [_entry(cid, p.s, QUBIT_CUTOFF, choice, tol, m) for cid, m in measures.items()]


def norm_ratio_entries(
    config: SweepConfig, p: DeformationParam, choice: FunctionChoice
) -> tuple[list[ReportEntry], list[NormRatioResult]]:
    samples = []

    def measure():
        result = norm_ratio_experiment(p, choice.psi1, choice.beta1)
        samples.append(result)
        note = (
            f"matches {result.matched_law}; measured {result.measured:.17g}, "
            f"product {result.prediction_product:.17g}, sqrt {result.prediction_sqrt:.17g}"
        )
        return result.distance_to_matched(), note

    entry = _entry(NORM_RATIO, p.s, QUBIT_CUTOFF, choice, config.tolerance, measure)
    # an error row leaves no sample behind, whatever its measure returned
    return [entry], [] if entry.residual == ERROR_RESIDUAL else samples


def run_sweep(config: SweepConfig, layers: Sequence[str] = SWEEP_LAYERS) -> SweepReport:
    """The checks of ``layers`` (default: all) at every grid point;
    deterministic for a fixed config."""
    entries: list[ReportEntry] = []
    samples: list[NormRatioResult] = []
    points = [(p, FunctionChoice.from_families(config.psi_family, config.beta_family, p.q))
              for p in map(DeformationParam, config.s_grid)]
    if ALGEBRA_LAYER in layers:
        entries.extend(algebra_entries(config, points))
    if GATE_LAYER in layers:
        plain_residual = max(max(abs(r.amplitude - 1.0), r.off_support) for r in cnot_truth_table())
    for p, choice in points:
        if GATE_LAYER in layers:
            entries.extend(gate_entries(config, p, choice, plain_residual))
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
    states actually satisfy.  A ratio (nan and inf included) that does not
    invert to a finite positive psi raises.
    """
    if measured_norm_ratio <= 0 or beta <= 0:
        raise ValueError("measured ratio and beta must be positive")
    if law not in (LAW_PRODUCT, LAW_SQRT):
        raise ValueError(f"unknown inversion law {law!r}; use {LAW_PRODUCT!r} or {LAW_SQRT!r}")
    try:
        psi = measured_norm_ratio / beta if law == LAW_PRODUCT else measured_norm_ratio**2 / beta
    except OverflowError:  # float ** raises where float * gives inf
        psi = math.inf
    if not 0 < psi < math.inf:
        raise ValueError(
            f"ratio {measured_norm_ratio!r} under law {law!r} gives no finite positive psi"
        )
    log_psi = math.log(psi)
    d0 = abs(log_psi - n_hat * p.s)
    d1 = abs(log_psi - (n_hat - 1) * p.s)
    classified = 0 if d0 <= d1 else 1
    return PsiInference(psi, n_hat, classified, min(d0, d1), law)


def _cell(value):
    """A CSV cell: floats at round-trip precision, booleans spelled as in JSON."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return value


def _points(entries: Iterable[ReportEntry]) -> list[dict]:
    """The JSON report's points: each run of consecutive entries whose five point cells
    are equal, with the run's rows.  A NaN cell is equal to none, so its point has one row.
    Between them, a point and its rows hold every column of ``ENTRY_COLUMNS`` once."""
    points: list[dict] = []
    last = None
    for check_id, s, cutoff, psi1, psi2, beta1, beta2, residual, passed, note in entries:
        cells = s, psi1, psi2, beta1, beta2
        if cells != last:
            rows: list[dict] = []
            points.append(
                {"s": s, "psi1": psi1, "psi2": psi2, "beta1": beta1, "beta2": beta2, "rows": rows}
            )
            # tuples compare cells by identity first, which would make a NaN equal to itself
            last = None if any(map(ne, cells, cells)) else cells
        rows.append(
            {"check_id": check_id, "cutoff": cutoff, "note": note, "pass": passed,
             "residual": residual}
        )
    return points


def serialize(report: SweepReport, output_format: str | None = None) -> bytes:
    """Deterministic bytes for a report; identical configs give identical bytes."""
    fmt = output_format or report.config.output_format
    if fmt == "json":
        payload = {
            "schema_version": report.schema_version,
            "tool_version": report.tool_version,
            "config": report.config.to_payload(),
            "points": _points(report.entries),
            "norm_ratio": [r._asdict() for r in report.norm_ratio],
            "summary": report.summary,
        }
        return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ENTRY_COLUMNS)
        writer.writerows(map(_cell, e) for e in report.entries)
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unsupported format {fmt!r}; use 'json' or 'csv'")


def parse_report(blob: bytes) -> SweepReport:
    """Rebuild a report from its JSON serialization (the inverse of serialize)."""
    payload = json.loads(blob.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"a report must be a JSON object, got {type(payload).__name__}")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"report schema {version!r} is not {SCHEMA_VERSION!r}")
    missing = sorted({"config", "norm_ratio", "points", "summary", "tool_version"} - payload.keys())
    if missing:
        raise ValueError(f"schema {version!r} report has no {', '.join(missing)}")
    cells, points = itemgetter(*ENTRY_COLUMNS), payload["points"]
    return SweepReport(
        schema_version=version,
        tool_version=payload["tool_version"],
        config=SweepConfig.from_payload(payload["config"]),
        entries=tuple(ReportEntry._make(cells({**p, **row})) for p in points for row in p["rows"]),
        norm_ratio=tuple(NormRatioResult(**r) for r in payload["norm_ratio"]),
        summary=payload["summary"],
    )
