"""Sweep orchestration, the dressing-inference demo, and report serialization.

A config makes and checks its grid points once, when it is built, and a sweep walks
them once.  At each point it makes the rows of every check of its layers, each from
one row builder, :func:`_entry`, the only place a residual becomes a verdict: a row
passes when its residual, a finite nonnegative float64, is at most ``tol``; a check
that raises a domain error, or measures a residual that is no such float, becomes an
error row (residual -1, fail) instead of aborting the sweep.  The known mismatch of
the number-product relation away from unit dressing is scientific content and is
recorded as an expected failure.  A report holds its points as the JSON report writes
them: each grid point's cells once, with its rows in check-id order.  Serialization
is bit-deterministic: sorted keys, canonical row order, no timestamps.  The JSON
report is one ``json.dumps`` of a payload holding those points; the CSV report is
one row per check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

from . import __version__ as _tool_version
from .audit import ALGEBRA_CHECK_IDS, MIN_AUDIT_CUTOFF, NUMBER_PRODUCTS
from .audit import _row_residual, algebra_residual_grid
from .fockspace import FunctionChoice, FunctionFamily, TruncatedFockSpace, _is_number
from .gates import CNOT_CONDITION, NOT_CONDITION
from .gates import check_cnot_condition, check_not_condition
from .qnumber import DeformationParam
from .qubits import LAW_PRODUCT, LAW_SQRT, QUBIT_CUTOFF, NormRatioResult, norm_ratio_experiment
from .qubits import _two_qubit_amplitude

SCHEMA_VERSION = "2"

CNOT_TABLE = "cnot_table"
CNOT_TABLE_DEFORMED = "cnot_table_deformed"
NORM_RATIO = "norm_ratio"

# The layers a sweep can run; `qdgates audit`, `gates` and `states` run one each.
ALGEBRA_LAYER = "algebra"
GATE_LAYER = "gates"
NORM_RATIO_LAYER = "norm_ratio"
SWEEP_LAYERS = (ALGEBRA_LAYER, GATE_LAYER, NORM_RATIO_LAYER)

# The report's one column list, in ReportEntry field order.
ENTRY_COLUMNS = (
    "check_id", "s", "cutoff", "psi1", "psi2", "beta1", "beta2", "residual", "pass", "note"
)

# A JSON report's keys, and those of each of its points and rows.
_REPORT_KEYS = frozenset({"config", "norm_ratio", "points", "summary", "tool_version"})
_POINT_CELLS = ("s", "psi1", "psi2", "beta1", "beta2")
_POINT_KEYS = frozenset({*_POINT_CELLS, "rows"})
_ROW_KEYS = frozenset({"check_id", "cutoff", "note", "pass", "residual"})
_SAMPLE_KEYS = frozenset(NormRatioResult._fields)
_SUMMARY_KEYS = frozenset({"per_check", "total_fail", "total_pass", "unexpected_failures"})

EXPECTED_FAIL_MARK = "expected failure"
_PRODUCTS_NOTE = (f"{EXPECTED_FAIL_MARK}: the dressed products match the deformed number "
                  "spectrum only when psi1 == psi2 == 1")

# Residual recorded when a check could not produce one (domain error); such
# rows fail but never abort the sweep.
ERROR_RESIDUAL = -1.0

# Default inversion law: the one the constructed states are measured to obey,
# pinned by the snapshot test in the suite.
DEFAULT_LAW = LAW_PRODUCT


class ConfigError(ValueError):
    """Sweep configuration rejected; carries every problem at once: each field's, which the
    config checks, and its JSON object's, which :meth:`SweepConfig.from_payload` reads."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class SweepConfig:
    s_grid: tuple[float, ...]
    psi_family: FunctionFamily = field(default_factory=FunctionFamily)
    beta_family: FunctionFamily = field(default_factory=FunctionFamily)
    cutoff: int = 16
    tolerance: float = 1e-10
    output_format: str = "json"

    def __post_init__(self) -> None:
        problems, grid = [], ()
        if isinstance(self.s_grid, (list, tuple)) and all(map(_is_number, self.s_grid)):
            grid = tuple(float(s) for s in self.s_grid)
            object.__setattr__(self, "s_grid", grid)
            if not grid:
                problems.append("s_grid must be nonempty")
        else:
            problems.append(f"s_grid must be a list of numbers, got {self.s_grid!r}")
        params = [DeformationParam(s) for s in grid if 0.0 < s <= 1.0]  # others: one problem
        if len(params) < len(grid):
            problems.append("s_grid values must lie in (0, 1]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            problems.append("s_grid must be strictly increasing")
        values = []
        for name, family in (("psi_family", self.psi_family), ("beta_family", self.beta_family)):
            column, bad = [], ""
            for p in params:
                try:
                    value = family.evaluate(p.q)
                except OverflowError:
                    value = math.inf
                column.append(value)
                # the first point where the family is no finite positive normal float: it
                # overflows, underflows to 0 or to a subnormal it names, or is no number
                if not (bad or math.isfinite(value) and value >= sys.float_info.min):
                    bad = f"{name} {family.label()} is not a finite positive float at s={p.s:g}"
                    problems.append(bad + (f" ({value!r} is subnormal)"
                                           if 0 < value < math.inf else ""))
            values.append(column)
            if not bad and not math.isfinite(family.exponent):  # q**nan is 1.0 where q rounds to 1
                problems.append(f"{name} exponent must be finite, got {family.exponent!r}")
        if type(self.cutoff) is not int or self.cutoff < MIN_AUDIT_CUTOFF:
            problems.append(f"cutoff must be an integer >= {MIN_AUDIT_CUTOFF}, got {self.cutoff!r}")
        if not (_is_number(self.tolerance) and self.tolerance > 0):
            problems.append(f"tolerance must be a positive number, got {self.tolerance!r}")
        elif self.tolerance == math.inf:
            problems.append("tolerance must be finite")
        else:  # stored as the float the report writes and reads back
            object.__setattr__(self, "tolerance", float(self.tolerance))
        if self.output_format not in ("json", "csv"):
            problems.append("output_format must be 'json' or 'csv'")
        if problems:
            raise ConfigError(problems)
        # the checked points, kept off the fields: no payload, repr or == reads them
        object.__setattr__(self, "_points", tuple(
            (p, FunctionChoice(psi1=psi, psi2=psi, beta1=beta, beta2=beta))
            for p, psi, beta in zip(params, *values)))

    def grid(self) -> tuple[tuple[DeformationParam, FunctionChoice], ...]:
        """Each grid strength's ``(p, choice)``, in grid order: the control pair dressed by
        the psi family at that point's q, the target pair by the beta family.  The points
        are made and checked once, when the config is built; each call returns them."""
        return self._points

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
        """The config a JSON object describes: a key it lacks keeps its field's default (s_grid
        has none), and a key that names no field is refused.  Families are read by
        :meth:`FunctionFamily.from_payload`; the config checks every field."""
        if not isinstance(payload, dict):
            raise ConfigError([f"config must be a JSON object, got {payload!r}"])
        names = [f.name for f in fields(cls)]
        problems = [f"config has unknown key {key!r}" for key in payload if key not in names]
        kwargs = {name: payload[name] for name in names if name in payload}
        for name in ("psi_family", "beta_family"):
            try:
                kwargs[name] = FunctionFamily.from_payload(kwargs.get(name, {}))
            except ValueError as exc:
                problems.append(f"{name} {exc}")
                del kwargs[name]
        if isinstance(kwargs.get("cutoff"), float) and kwargs["cutoff"].is_integer():
            kwargs["cutoff"] = int(kwargs["cutoff"])  # JSON may spell 16 as 16.0
        try:
            config = cls(**{"s_grid": (), **kwargs})  # no s_grid is an empty one
        except ConfigError as err:
            problems += err.problems
        if problems:
            raise ConfigError(problems)
        return config


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
    """A report as its JSON payload holds it: each of ``points`` is a grid point, ``{s, psi1,
    psi2, beta1, beta2, rows}``, with rows ``{check_id, cutoff, note, pass, residual}``."""

    schema_version: str
    tool_version: str
    config: SweepConfig
    points: tuple[dict, ...]
    norm_ratio: tuple[NormRatioResult, ...]
    summary: dict

    @property
    def entries(self) -> tuple[ReportEntry, ...]:
        """Every row as a flat record, in report order; built on each read."""
        return tuple(
            ReportEntry(row["check_id"], point["s"], row["cutoff"], point["psi1"], point["psi2"],
                        point["beta1"], point["beta2"], row["residual"], row["pass"], row["note"])
            for point in self.points for row in point["rows"]
        )

    def unexpected_failures(self) -> int:
        return int(self.summary["unexpected_failures"])


def _entry(check_id, cutoff, tolerance, note, measure, *args) -> dict:
    """The one report row builder and pass rule: ``measure(*args)`` gives the
    residual of a row noted ``note``, or ``(residual, note)`` if ``note`` is None;
    a ValueError it raises, or a residual that is no finite nonnegative float,
    becomes an error row.  The row is the JSON report's."""
    try:
        residual = measure(*args)
        if note is None:
            residual, note = residual
        residual = float(residual)
        if not (math.isfinite(residual) and residual >= 0):
            raise ValueError(f"residual must be finite and nonnegative, got {residual!r}")
        passed = residual <= tolerance
    except ValueError as exc:
        residual, passed, note = ERROR_RESIDUAL, False, f"error: {exc}"
    return {"check_id": check_id, "cutoff": cutoff, "note": note, "pass": passed,
            "residual": residual}


def algebra_entries(
    config: SweepConfig, points: Sequence[tuple[DeformationParam, FunctionChoice]]
) -> list[list[dict]]:
    """The algebra rows of each ``(p, choice)`` of ``points``, in
    :data:`~qdgates.audit.ALGEBRA_CHECK_IDS` order, from one residual grid."""
    grid = algebra_residual_grid(TruncatedFockSpace(config.cutoff), points)
    cutoff, tol = config.cutoff, config.tolerance
    rows = []
    for (p, choice), residuals in zip(points, grid):
        products = "" if choice.psi1 == choice.psi2 == 1.0 else _PRODUCTS_NOTE
        rows.append([
            _entry(check_id, cutoff, tol, products if check_id == NUMBER_PRODUCTS else "",
                   _row_residual, residuals, i)
            for i, check_id in enumerate(ALGEBRA_CHECK_IDS)
        ])
    return rows


def _deformed_table(p: DeformationParam, choice: FunctionChoice):
    """The deformed CNOT table's residual and note: the dressed gate leaves the one two-qubit
    amplitude on each of the four transitions, so the rows' spread is 0."""
    amplitude = _two_qubit_amplitude(p, choice)
    return 0.0, f"common row amplitude {amplitude:.17g}"


def gate_entries(config: SweepConfig, p: DeformationParam, choice: FunctionChoice) -> list[dict]:
    """Gate rows at one grid point: the NOT and CNOT conditions, then the plain and the deformed
    CNOT tables.  The plain table reads 0 at every point, and the deformed one reads 0 and
    notes the point's two-qubit amplitude, or is an error row where that amplitude raises;
    neither applies the gate.  Tier-1 tests carry what the tables claim:
    ``test_05_controlled_flip_truth_table`` applies ``apply_cnot`` to the plain and the dressed
    basis states, and ``test_deformed_cnot_keeps_each_dressed_amplitude_exactly`` ties the
    deformed row's amplitude to the gate's, bit for bit."""
    tol = config.tolerance
    return [
        _entry(NOT_CONDITION, QUBIT_CUTOFF, tol, "", check_not_condition, p, choice),
        _entry(CNOT_CONDITION, QUBIT_CUTOFF, tol, "", check_cnot_condition, p, choice),
        # the plain gate maps each basis state to its flip with amplitude exactly 1 at every s
        # (test_05_controlled_flip_truth_table)
        _entry(CNOT_TABLE, QUBIT_CUTOFF, tol, "", float, 0.0),
        _entry(CNOT_TABLE_DEFORMED, QUBIT_CUTOFF, tol, None, _deformed_table, p, choice),
    ]


def _norm_ratio(p: DeformationParam, choice: FunctionChoice, samples: list):
    """The norm-ratio residual and note; the measured sample is added to ``samples``."""
    result = norm_ratio_experiment(p, choice.psi1, choice.beta1)
    samples.append(result)
    return result.distance_to_matched(), (
        f"matches {result.matched_law}; measured {result.measured:.17g}, "
        f"product {result.prediction_product:.17g}, sqrt {result.prediction_sqrt:.17g}"
    )


def norm_ratio_entries(
    config: SweepConfig, p: DeformationParam, choice: FunctionChoice
) -> tuple[list[dict], list[NormRatioResult]]:
    samples: list[NormRatioResult] = []
    row = _entry(NORM_RATIO, QUBIT_CUTOFF, config.tolerance, None, _norm_ratio, p, choice, samples)
    # an error row leaves no sample behind, whatever its measure returned
    return [row], [] if row["residual"] == ERROR_RESIDUAL else samples


def run_sweep(config: SweepConfig, layers: Sequence[str] = SWEEP_LAYERS) -> SweepReport:
    """The checks of ``layers`` (default: all) at every grid point, walked once: each
    point's rows in check-id order, counted into the summary as they are made.
    Deterministic for a fixed config."""
    grid = config.grid()
    gates, norm_ratio = GATE_LAYER in layers, NORM_RATIO_LAYER in layers
    algebra = algebra_entries(config, grid) if ALGEBRA_LAYER in layers else [[]] * len(grid)
    points: list[dict] = []
    samples: list[NormRatioResult] = []
    unexpected = 0
    for (p, choice), point_rows in zip(grid, algebra):
        if gates:
            point_rows = point_rows + gate_entries(config, p, choice)
        if norm_ratio:
            norm_rows, point_samples = norm_ratio_entries(config, p, choice)
            point_rows = point_rows + norm_rows
            samples += point_samples
        if not points:
            # every point makes the first one's check ids in the same order: sorting
            # them once gives each point's row order and the summary's keys
            made = [row["check_id"] for row in point_rows]
            order = sorted(range(len(made)), key=made.__getitem__)
            fails = [0] * len(made)
        rows = [point_rows[i] for i in order]
        for i in [i for i, row in enumerate(rows) if not row["pass"]]:
            fails[i] += 1
            unexpected += EXPECTED_FAIL_MARK not in rows[i]["note"]
        points.append({"s": p.s, "psi1": choice.psi1, "psi2": choice.psi2,
                       "beta1": choice.beta1, "beta2": choice.beta2, "rows": rows})
    total_fail = sum(fails)
    return SweepReport(SCHEMA_VERSION, _tool_version, config, tuple(points), tuple(samples), {
        "per_check": {check_id: {"pass": len(points) - n, "fail": n}
                      for check_id, n in zip(sorted(made), fails)},
        "total_pass": len(points) * len(made) - total_fail,
        "total_fail": total_fail,
        "unexpected_failures": unexpected,
    })


class PsiInference(NamedTuple):
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
    if not abs(n_hat) <= sys.float_info.max:  # int * float raises beyond float64
        raise ValueError(f"n_hat must be an integer float64 can hold, got {n_hat!r}")
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


def serialize(report: SweepReport, output_format: str | None = None) -> bytes:
    """Deterministic bytes for a report; identical configs give identical bytes."""
    fmt = output_format or report.config.output_format
    if fmt == "json":
        payload = {
            "schema_version": report.schema_version,
            "tool_version": report.tool_version,
            "config": report.config.to_payload(),
            "points": report.points,
            "norm_ratio": [r._asdict() for r in report.norm_ratio],
            "summary": report.summary,
        }
        # no report holds a cycle, so the encoder need not keep a marker per container
        return (json.dumps(payload, sort_keys=True, check_circular=False) + "\n").encode("utf-8")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ENTRY_COLUMNS)
        for point in report.points:
            # floats at round-trip precision, a point's once; booleans spelled as in JSON
            s, psi1, psi2, beta1, beta2 = (format(point[key], ".17g") for key in _POINT_CELLS)
            writer.writerows(
                (row["check_id"], s, row["cutoff"], psi1, psi2, beta1, beta2,
                 format(row["residual"], ".17g"), "true" if row["pass"] else "false", row["note"])
                for row in point["rows"]
            )
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unsupported format {fmt!r}; use 'json' or 'csv'")


def _require(record, keys: frozenset, where: str, *index) -> None:
    """A ValueError naming ``where % index`` unless ``record`` is a JSON object with ``keys``."""
    if not isinstance(record, dict):
        raise ValueError(f"{where % index} is not a JSON object")
    if not keys <= record.keys():
        raise ValueError(f"{where % index} has no {', '.join(sorted(keys - record.keys()))}")


def parse_report(blob: bytes) -> SweepReport:
    """Rebuild a report from its JSON serialization (the inverse of serialize),
    keeping its points as they are read, once each is checked for its keys."""
    payload = json.loads(blob.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"a report must be a JSON object, got {type(payload).__name__}")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"report schema {version!r} is not {SCHEMA_VERSION!r}")
    _require(payload, _REPORT_KEYS, "schema %r report", version)
    points = payload["points"]
    if not isinstance(points, list):
        raise ValueError(f"report points must be a list, got {type(points).__name__}")
    for i, point in enumerate(points):
        _require(point, _POINT_KEYS, "report point %d", i)
        rows = point["rows"]
        if not isinstance(rows, list):
            raise ValueError(f"report point {i} rows must be a list, got {type(rows).__name__}")
        for j, row in enumerate(rows):
            _require(row, _ROW_KEYS, "report point %d row %d", i, j)
    samples = payload["norm_ratio"]
    if not isinstance(samples, list):
        raise ValueError(f"report norm_ratio must be a list, got {type(samples).__name__}")
    for i, sample in enumerate(samples):
        _require(sample, _SAMPLE_KEYS, "report norm_ratio sample %d", i)
        if len(sample) > len(_SAMPLE_KEYS):  # a NormRatioResult has no place for it
            unknown = ", ".join(sorted(sample.keys() - _SAMPLE_KEYS))
            raise ValueError(f"report norm_ratio sample {i} has unknown {unknown}")
    _require(payload["summary"], _SUMMARY_KEYS, "report summary")
    return SweepReport(
        schema_version=version,
        tool_version=payload["tool_version"],
        config=SweepConfig.from_payload(payload["config"]),
        points=tuple(points),
        norm_ratio=tuple(NormRatioResult(**r) for r in samples),
        summary=payload["summary"],
    )
