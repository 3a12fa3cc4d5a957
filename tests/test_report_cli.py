import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import canonical_order, family_problems, grid_points, group_points, summarize

import qdgates
import qdgates.report as report_module
from qdgates.audit import ALGEBRA_CHECK_IDS
from qdgates.cli import main, run
from qdgates.fockspace import FunctionChoice, FunctionFamily, TruncatedFockSpace
from qdgates.qnumber import DeformationParam
from qdgates.qubits import (
    NormRatioResult,
    case2_consistency_table,
    norm_ratio_experiment,
    two_qubit_state,
)
from qdgates.report import (
    ALGEBRA_LAYER,
    ConfigError,
    ENTRY_COLUMNS,
    EXPECTED_FAIL_MARK,
    GATE_LAYER,
    LAW_PRODUCT,
    LAW_SQRT,
    NORM_RATIO_LAYER,
    SCHEMA_VERSION,
    SWEEP_LAYERS,
    ReportEntry,
    SweepConfig,
    SweepReport,
    algebra_entries,
    gate_entries,
    infer_psi_from_norm,
    norm_ratio_entries,
    parse_report,
    run_sweep,
    serialize,
)

S_GRID = (0.1, 0.5, 0.9)
POWER_ONE = FunctionFamily("power_of_q", 1.0)

# Each layer's check ids, stated here: a sweep reads its row order and its summary's
# keys from the rows its layers make, and the package keeps no list of them.
LAYER_CHECK_IDS = {
    ALGEBRA_LAYER: ("number_commutators", "number_products", "qcommutator", "shift_rule"),
    GATE_LAYER: ("cnot_condition", "cnot_table", "cnot_table_deformed", "not_condition"),
    NORM_RATIO_LAYER: ("norm_ratio",),
}
ALL_CHECK_IDS = tuple(sorted(c for ids in LAYER_CHECK_IDS.values() for c in ids))
LAYER_SUBSETS = [
    layers for n in range(1, len(SWEEP_LAYERS) + 1)
    for layers in itertools.combinations(SWEEP_LAYERS, n)
]


def config(**kwargs):
    kwargs.setdefault("s_grid", (0.5,))
    return SweepConfig(**kwargs)


# JSON values as json.loads gives them, with NaN, Infinity and integers of up to 401 digits
NUMBERS = st.integers(-(10**400), 10**400) | st.floats()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# values a config's field is likely to take, so that many drawn payloads are accepted
FIELD_VALUES = {
    "s_grid": st.lists(st.floats(0.0, 1.0, exclude_min=True) | st.just(1), min_size=1,
                       max_size=3, unique=True).map(sorted),
    "psi_family": st.sampled_from(["1", "q", "q^2", "q^-0.5", "q^x"]) | st.fixed_dictionaries(
        {}, optional={"kind": st.sampled_from(["constant_one", "power_of_q"]),
                      "exponent": st.floats(-4.0, 4.0) | NUMBERS}
    ),
    "cutoff": st.integers(4, 64) | st.floats(4.0, 64.0) | NUMBERS,
    "tolerance": st.floats(0.0, 1.0, exclude_min=True) | NUMBERS,
    "output_format": st.sampled_from(["json", "csv", "xml"]),
}
FIELD_VALUES["beta_family"] = FIELD_VALUES["psi_family"]


@st.composite
def config_payloads(draw):
    """A JSON value a config file could hold: mostly an object with s_grid and some other
    keys of a config, now and then the misspelled ``cutof``, each holding a value its field
    is likely to take or, one time in five, any JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    keys = draw(st.lists(st.sampled_from([*FIELD_VALUES, "cutof"]), unique=True))
    if draw(st.integers(0, 9)) > 0 and "s_grid" not in keys:
        keys.append("s_grid")
    return {key: draw(JSON_VALUES if draw(st.integers(0, 4)) == 0 else
                      FIELD_VALUES.get(key, JSON_VALUES)) for key in keys}


class TestSweepConfig:
    def test_empty_grid_names_the_field(self):
        with pytest.raises(ConfigError, match="s_grid"):
            config(s_grid=())

    def test_all_problems_reported_at_once(self):
        with pytest.raises(ConfigError) as err:
            SweepConfig(s_grid=(), cutoff=2, tolerance=-1.0, output_format="xml")
        assert len(err.value.problems) == 4

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ConfigError, match="increasing"):
            config(s_grid=(0.9, 0.1))

    def test_rejects_out_of_range_strengths(self):
        with pytest.raises(ConfigError, match="\\(0, 1\\]"):
            config(s_grid=(0.5, 1.5))

    def test_grid_dresses_each_point_by_both_families(self):
        # each strength's (p, choice), in grid order: the psi family's value at that q on
        # the control pair, the beta family's on the target pair
        c = config(s_grid=(0.1, 0.5), psi_family=FunctionFamily("power_of_q", 2.0),
                   beta_family=FunctionFamily("power_of_q", -1.0))
        (p_first, _), (p, choice) = c.grid()
        assert (p_first.s, p.s) == (0.1, 0.5)
        q = math.exp(0.5)
        assert choice.psi1 == choice.psi2 == pytest.approx(q**2)
        assert choice.beta1 == choice.beta2 == pytest.approx(1 / q)

    def test_payload_round_trip(self):
        c = config(s_grid=(0.1, 0.4), psi_family=POWER_ONE, cutoff=8, tolerance=1e-9)
        assert SweepConfig.from_payload(c.to_payload()) == c

    @pytest.mark.parametrize(
        "field,value",
        [
            ("cutoff", 16.5),
            ("cutoff", True),
            ("cutoff", math.inf),
            ("tolerance", True),
            ("tolerance", 0.0),
        ],
    )
    def test_payload_rejects_values_a_conversion_would_change(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be"):
            SweepConfig.from_payload({"s_grid": [0.5], field: value})

    def test_payload_stores_an_integral_tolerance_as_a_float(self):
        # from_payload hands the tolerance on as read; the config stores the
        # float its report writes, so a file's 1 and the field's 1.0 are one config
        c = SweepConfig.from_payload({"s_grid": [0.5], "tolerance": 1})
        assert type(c.tolerance) is float and c == config(s_grid=(0.5,), tolerance=1.0)

    def test_payload_accepts_an_integral_float_cutoff(self):
        c = SweepConfig.from_payload({"s_grid": [0.5], "cutoff": 16.0})
        assert c.cutoff == 16 and isinstance(c.cutoff, int)

    @settings(deadline=None)
    @given(config_payloads())
    @example({"s_grid": [0.5], "tolerance": 10**400})
    @example({"s_grid": [0.5, 10**400]})
    @example({"s_grid": [0.5], "psi_family": {"kind": "power_of_q", "exponent": 10**400}})
    @example({"s_grid": [0.5], "cutof": 8})
    # q = exp(1e-17) rounds to 1.0, and 1.0**nan and 1.0**inf are 1.0: both used to be
    # accepted, and the report wrote NaN and Infinity as their exponents
    @example({"s_grid": [1e-17], "psi_family": "q^nan", "beta_family": "q^inf"})
    @example({"s_grid": [1e-17], "psi_family": {"kind": "power_of_q", "exponent": math.nan},
              "beta_family": {"kind": "power_of_q", "exponent": -math.inf}})
    def test_a_drawn_payload_is_refused_by_name_or_round_trips(self, payload):
        # configs only: no sweep runs; the 400-digit integers used to raise OverflowError
        try:
            c = SweepConfig.from_payload(payload)
        except ValueError:  # a ConfigError is one
            return
        # repr, unlike ==, tells -0.0 from 0.0
        assert repr(SweepConfig.from_payload(c.to_payload())) == repr(c)
        # a report writes no NaN or Infinity
        json.dumps(c.to_payload(), allow_nan=False)

    @pytest.mark.parametrize(
        "exponent,bad_s", [(900.0, 0.9), (-2000.0, 0.9), (-800.0, 0.9), (math.nan, 0.1)]
    )
    def test_rejects_families_that_are_not_finite_positive_floats(self, exponent, bad_s):
        # on (0.1, 0.9), q**900 overflows, q**-2000 underflows to 0 and q**-800 to a
        # subnormal (2.3e-313) only at 0.9
        family = FunctionFamily("power_of_q", exponent)
        with pytest.raises(ConfigError, match=f"beta_family .* finite positive float at s={bad_s}"):
            config(s_grid=(0.1, 0.9), beta_family=family)


@st.composite
def sweep_configs(draw):
    """A sweep config: up to four grid strengths, `1` or `q^k` families, cutoff 4 to 64."""
    grid = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4, unique=True))
    family = st.one_of(
        st.just(FunctionFamily()),
        st.builds(FunctionFamily, st.just("power_of_q"), st.floats(-4, 4)),
    )
    return SweepConfig(
        s_grid=tuple(sorted(grid)), psi_family=draw(family), beta_family=draw(family),
        cutoff=draw(st.integers(4, 64)),
    )


@st.composite
def family_grids(draw):
    """``(s_grid, psi_family, beta_family)``: strengths mostly in (0, 1], some where q rounds
    to 1, now and then one out of range or out of order, and families whose values can
    overflow, underflow to 0 or to a subnormal, or be no number.  An exponent near one of
    ``ln(q**x)`` = +-709, +-745 at a grid strength puts that edge on the grid."""
    strengths = st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([1e-17, 1.0])
    grid = draw(st.lists(strengths, min_size=1, max_size=4, unique=True))
    if draw(st.integers(0, 9)) == 5:
        grid.append(draw(st.sampled_from([0.0, 1.5])))
    edge = st.floats(-750, -700) | st.floats(700, 712)
    exponents = (st.floats(-4, 4) | st.floats(-2e3, 2e3) | st.floats()
                 | st.tuples(edge, st.sampled_from(grid)).map(lambda e: e[0] / max(e[1], 1e-3)))
    family = st.just(FunctionFamily()) | st.builds(FunctionFamily, st.just("power_of_q"), exponents)
    return tuple(grid if draw(st.integers(0, 9)) == 5 else sorted(grid)), draw(family), draw(family)


class TestConfigGrid:
    def test_each_family_is_evaluated_once_per_strength(self, monkeypatch):
        # the grid is made when the config is built; each sweep used to evaluate both
        # families again at every strength
        calls = []
        evaluate = FunctionFamily.evaluate
        monkeypatch.setattr(FunctionFamily, "evaluate", lambda f, q: calls.append(q) or evaluate(f, q))
        c = config(s_grid=S_GRID, psi_family=POWER_ONE, beta_family=FunctionFamily.parse("q^2"))
        run_sweep(c)
        run_sweep(c)
        assert c.grid() is c.grid()
        assert len(calls) == 2 * len(S_GRID)

    @settings(deadline=None)
    @given(sweep_configs().map(lambda c: (c.s_grid, c.psi_family, c.beta_family)) | family_grids())
    # on (0.1, 0.9), q**900 overflows, q**-2000 underflows to 0 and q**-800 to a subnormal
    # only at 0.9; where q rounds to 1, q**nan reads 1.0
    @example(((0.1, 0.9), FunctionFamily("power_of_q", 900.0), FunctionFamily("power_of_q", -800.0)))
    @example(((0.1, 0.9), FunctionFamily(), FunctionFamily("power_of_q", -2000.0)))
    @example(((1e-17, 0.5), FunctionFamily("power_of_q", math.nan), FunctionFamily()))
    def test_the_one_walk_gives_the_two_walks_points_and_problems(self, drawn):
        s_grid, psi_family, beta_family = drawn
        expected = family_problems(s_grid, psi_family, beta_family)
        try:
            c = SweepConfig(s_grid=s_grid, psi_family=psi_family, beta_family=beta_family)
        except ConfigError as err:
            families = [p for p in err.problems if p.startswith(("psi_family", "beta_family"))]
            assert families == expected
            return
        assert expected == []
        assert list(c.grid()) == grid_points(c)


class TestRunSweep:
    def test_unit_functions_pass_everything(self):
        report = run_sweep(config(s_grid=(0.5,), cutoff=16, tolerance=1e-10))
        assert len(report.entries) == len(ALL_CHECK_IDS)
        assert report.summary["total_fail"] == 0
        assert report.unexpected_failures() == 0

    def test_nonunit_family_fails_only_the_product_relation(self):
        report = run_sweep(config(s_grid=S_GRID, psi_family=POWER_ONE))
        assert len(report.entries) == len(S_GRID) * len(ALL_CHECK_IDS)
        products = [e for e in report.entries if e.check_id == "number_products"]
        flips = [e for e in report.entries if e.check_id == "not_condition"]
        assert len(products) == len(S_GRID) and all(not e.passed for e in products)
        assert all("expected failure" in e.note for e in products)
        assert len(flips) == len(S_GRID) and all(e.passed for e in flips)
        assert report.unexpected_failures() == 0

    def test_a_reciprocal_pair_is_an_expected_product_failure(self):
        # psi1 * psi2 == 1, but the products need psi1 == psi2 == 1: at (2, 0.5)
        # level 0 misses by sinh(ln 2)/sinh(0.3) (test_algebra_audit)
        p, choice = DeformationParam(0.3), FunctionChoice(psi1=2.0, psi2=0.5)
        (rows,) = algebra_entries(config(s_grid=(p.s,)), [(p, choice)])
        (products,) = [row for row in rows if row["check_id"] == "number_products"]
        assert not products["pass"] and EXPECTED_FAIL_MARK in products["note"]
        assert products["note"] == (
            "expected failure: the dressed products match the deformed number spectrum "
            "only when psi1 == psi2 == 1"
        )

    def test_summary_matches_entry_tally(self):
        report = run_sweep(config(s_grid=(0.1, 0.5), psi_family=POWER_ONE))
        passed = sum(1 for e in report.entries if e.passed)
        failed = sum(1 for e in report.entries if not e.passed)
        assert report.summary["total_pass"] == passed
        assert report.summary["total_fail"] == failed
        per_check = report.summary["per_check"]
        for check_id in ALL_CHECK_IDS:
            rows = [e for e in report.entries if e.check_id == check_id]
            assert per_check[check_id]["pass"] == sum(1 for e in rows if e.passed)
            assert per_check[check_id]["fail"] == sum(1 for e in rows if not e.passed)

    def test_entries_in_canonical_order(self):
        report = run_sweep(config(s_grid=(0.1, 0.5)))
        keys = [(e.s, e.check_id) for e in report.entries]
        grid_pos = {0.1: 0, 0.5: 1}
        assert keys == sorted(keys, key=lambda k: (grid_pos[k[0]], k[1]))

    def test_norm_ratio_samples_pin_the_product_law(self):
        report = run_sweep(config(s_grid=S_GRID, psi_family=POWER_ONE))
        assert len(report.norm_ratio) == len(S_GRID)
        assert all(r.matched_law == "product" for r in report.norm_ratio)

    def test_domain_errors_become_entries_instead_of_aborting(self, monkeypatch):
        def broken(space, points):
            return [ValueError("rigged dressing failure")] * len(points)

        monkeypatch.setattr(report_module, "algebra_residual_grid", broken)
        report = run_sweep(config(s_grid=(0.5,)))
        assert len(report.entries) == len(ALL_CHECK_IDS)
        errored = [e for e in report.entries if e.note.startswith("error:")]
        assert len(errored) == 4
        assert all(e.residual == -1.0 and not e.passed for e in errored)
        assert report.unexpected_failures() == 4


    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, np.longdouble("1e400")], ids=["nan", "inf", "longdouble"]
    )
    @pytest.mark.parametrize(
        "layer,check_id,target,rigged",
        [
            (ALGEBRA_LAYER, "qcommutator", "algebra_residual_grid", lambda v: [(v, 0.0, 0.0, 0.0)]),
            (GATE_LAYER, "not_condition", "check_not_condition", lambda v: v),
            (
                NORM_RATIO_LAYER,
                "norm_ratio",
                "norm_ratio_experiment",
                lambda v: NormRatioResult(0.5, 1.0, 1.0, v, 1.0, 1.0, "product"),
            ),
        ],
        ids=SWEEP_LAYERS,
    )
    def test_a_residual_that_is_no_float64_is_an_error_row(
        self, monkeypatch, layer, check_id, target, rigged, value
    ):
        # every layer's rows pass through the one row builder, which used to
        # refuse such a residual for algebra rows only and write NaN for others;
        # only the algebra layer makes longdouble residuals, so only its rows name
        # the magnitude of one that overflows float64
        monkeypatch.setattr(report_module, target, lambda *args, **kwargs: rigged(value))
        refused = f"residual must be finite and nonnegative, got {float(value)!r}"
        if layer == ALGEBRA_LAYER and np.isfinite(value):
            refused = "qcommutator residual 1.e+400 is finite in longdouble but overflows float64"
        report = run_sweep(config(), layers=(layer,))
        (row,) = [e for e in report.entries if e.check_id == check_id]
        assert row.residual == -1.0 and not row.passed
        assert row.note == f"error: {refused}"
        # an error row's norm-ratio sample used to stay behind, written as NaN
        assert report.norm_ratio == ()

        def refuse(constant):
            raise AssertionError(f"report holds {constant}")

        json.loads(serialize(report, "json"), parse_constant=refuse)

    def test_layers_partition_the_full_sweep(self):
        cfg = config(s_grid=S_GRID, psi_family=POWER_ONE)
        full = run_sweep(cfg)
        parts = [run_sweep(cfg, layers=(layer,)) for layer in SWEEP_LAYERS]
        merged = sorted(
            (e for part in parts for e in part.entries), key=lambda e: (e.s, e.check_id)
        )
        assert merged == sorted(full.entries, key=lambda e: (e.s, e.check_id))
        assert parts[2].norm_ratio == full.norm_ratio
        assert not parts[0].norm_ratio and not parts[1].norm_ratio

    @pytest.mark.parametrize("tolerance", [1e-10, 1e-30], ids=["expected-failures", "unexpected"])
    @pytest.mark.parametrize("layers", LAYER_SUBSETS, ids="+".join)
    def test_a_sweep_of_some_layers_is_the_full_sweep_restricted_to_their_checks(
        self, layers, tolerance
    ):
        # `qdgates audit`, `gates` and `states` print and write one layer's rows and summary
        cfg = config(s_grid=S_GRID, psi_family=POWER_ONE, tolerance=tolerance)
        full, part = run_sweep(cfg), run_sweep(cfg, layers=layers)
        checks = sorted(c for layer in layers for c in LAYER_CHECK_IDS[layer])
        restricted = tuple(e for e in full.entries if e.check_id in checks)
        assert part.entries == restricted
        assert part.summary == summarize(restricted)
        assert list(part.summary["per_check"]) == checks
        assert part.summary["per_check"] == {
            check_id: counts for check_id, counts in full.summary["per_check"].items()
            if check_id in checks
        }

    @settings(deadline=None)
    @given(sweep_configs(), st.randoms(use_true_random=False))
    def test_a_sweep_walks_its_points_in_canonical_order(self, cfg, rng):
        # sorting the rows by (grid index, check id), regrouping them into points
        # and tallying them, the long way, gives the walk's report back
        report = run_sweep(cfg)
        entries = list(report.entries)
        shuffled = entries[:]
        rng.shuffle(shuffled)
        assert canonical_order(shuffled, cfg.s_grid) == entries
        assert group_points(entries) == list(report.points)
        assert report.summary == summarize(entries)

    def test_plain_table_row_reads_zero_at_every_point(self):
        # the plain gate does not depend on s or the dressing, so its row is the
        # constant that test_05_controlled_flip_truth_table carries
        report = run_sweep(config(s_grid=S_GRID, psi_family=POWER_ONE), layers=(GATE_LAYER,))
        rows = [e for e in report.entries if e.check_id == "cnot_table"]
        assert [e.s for e in rows] == list(S_GRID)
        assert all(e.residual == 0.0 and e.passed and e.note == "" for e in rows)

    def test_a_sweep_validates_each_point_dressing_once(self, monkeypatch):
        # the gate and norm-ratio layers check their bare floats, so the one
        # FunctionChoice a point builds is its only validation
        calls = []
        post_init = FunctionChoice.__post_init__

        def counted(choice):
            calls.append(choice)
            post_init(choice)

        monkeypatch.setattr(FunctionChoice, "__post_init__", counted)
        run_sweep(config(s_grid=S_GRID, psi_family=POWER_ONE))
        assert len(calls) == len(S_GRID)

    def test_float64_overflow_becomes_explained_error_rows(self):
        report = run_sweep(config(s_grid=(0.9,), cutoff=1024), layers=(ALGEBRA_LAYER,))
        assert len(report.entries) == 4
        rows = {e.check_id: e for e in report.entries}
        # only the two checks whose residual overflows float64 are error rows,
        # each with its own note
        for check_id, magnitude in (("qcommutator", "7.941e+379"), ("number_products", "3.970e+379")):
            e = rows[check_id]
            assert e.residual == -1.0 and not e.passed
            assert "finite in longdouble but overflows float64" in e.note
            assert "e+379" in e.note
            assert e.note.startswith(f"error: {check_id} residual {magnitude} ")
        commutators = rows["number_commutators"]
        assert f"{commutators.residual:.3e}" == "1.780e+183" and not commutators.passed
        assert commutators.note == ""
        assert rows["shift_rule"].residual == 0.0 and rows["shift_rule"].passed


# float64 extremes, signed zeros, nan and inf, and characters json must escape
EDGE_FLOATS = st.one_of(
    st.sampled_from((5e-324, 1.7976931348623157e308, 1e16, 1e-5, 0.0, -0.0, -1.0)), st.floats()
)
ESCAPED = st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600\ud800')
EDGE_TEXTS = st.text(st.one_of(ESCAPED, st.characters()), max_size=8)


# check ids that repeat at one point, besides the drawn texts
CHECK_IDS = st.one_of(st.sampled_from(("qcommutator", "norm_ratio")), EDGE_TEXTS)


def point(s, psi1, psi2, beta1, beta2, rows):
    return {"s": s, "psi1": psi1, "psi2": psi2, "beta1": beta1, "beta2": beta2, "rows": rows}


def report_of(points, samples=()):
    """A report of ``points`` and norm-ratio ``samples``, its summary tallied from the rows."""
    report = SweepReport(
        SCHEMA_VERSION, qdgates.__version__, config(), tuple(points), tuple(samples), {}
    )
    return dataclasses.replace(report, summary=summarize(report.entries))


@st.composite
def drawn_reports(draw):
    """A report of drawn points and norm-ratio samples.  A point has up to three rows,
    whose check ids may repeat, and a point may recur after another, as the very cell
    objects or as equal copies (-0.0 for 0.0, another NaN for NaN); often there are none."""
    f = EDGE_FLOATS
    drawn_cells = draw(st.lists(st.tuples(f, f, f, f, f), min_size=1, max_size=3))
    points = []
    for _ in range(draw(st.integers(0, 4))):
        cells = draw(st.sampled_from(drawn_cells))
        if draw(st.booleans()):
            cells = [-c if c == 0 else float(repr(c)) for c in cells]
        rows = [
            {"check_id": draw(CHECK_IDS), "cutoff": draw(st.integers(-(2**70), 2**70)),
             "note": draw(EDGE_TEXTS), "pass": draw(st.booleans()), "residual": draw(f)}
            for _ in range(draw(st.integers(0, 3)))
        ]
        points.append(point(*cells, rows))
    samples = draw(st.lists(st.builds(NormRatioResult, f, f, f, f, f, f, EDGE_TEXTS), max_size=3))
    return report_of(points, samples)


SAMPLE = dict(zip(NormRatioResult._fields, (0.5, 1.0, 1.0, 1.0, 1.0, 1.0, "product")))
SUMMARY = {"per_check": {}, "total_fail": 0, "total_pass": 0, "unexpected_failures": 0}


def report_blob(**keys):
    """The bytes of a schema-2 report with no points and one norm-ratio sample, ``keys``
    replacing its own."""
    payload = {"schema_version": "2", "tool_version": "0.1.0", "config": {"s_grid": [0.5]},
               "points": [], "norm_ratio": [SAMPLE], "summary": SUMMARY}
    return json.dumps({**payload, **keys}).encode()


def nan_as_text(record):
    """A record's cells, each NaN as the text "nan", so that records holding NaN compare."""
    return tuple("nan" if v != v else v for v in record)


class TestRecords:
    @pytest.mark.parametrize(
        "record",
        [
            ReportEntry("not_condition", 0.5, 4, 1.0, 1.0, 1.0, 1.0, 0.0, True),
            norm_ratio_experiment(DeformationParam(0.5), 1.0, 1.0),
            infer_psi_from_norm(2.0, 1.0, DeformationParam(0.5)),
            case2_consistency_table(DeformationParam(0.5))[0].control,
            case2_consistency_table(DeformationParam(0.5))[0],
        ],
        ids=["ReportEntry", "NormRatioResult", "PsiInference", "CaseIIOccupation", "CaseIIRow"],
    )
    def test_fields_cannot_be_assigned(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_entry_fields_are_the_report_columns(self):
        # the report spells the verdict column `pass`, a Python keyword
        assert ["pass" if f == "passed" else f for f in ReportEntry._fields] == list(ENTRY_COLUMNS)


class TestSerialization:
    def test_json_round_trip(self):
        report = run_sweep(config(s_grid=(0.1, 0.5), psi_family=POWER_ONE))
        assert parse_report(serialize(report, "json")) == report

    def test_an_integral_tolerance_round_trips_and_a_boolean_one_is_refused(self):
        # tolerance=1 used to write 1, which reads back as 1.0 and writes 1.0, and
        # tolerance=True to write true, which parse_report refuses
        blob = serialize(run_sweep(config(tolerance=1), layers=(GATE_LAYER,)))
        assert b'"tolerance": 1.0' in blob
        assert serialize(parse_report(blob)) == blob
        with pytest.raises(ConfigError) as err:
            config(tolerance=True)
        assert err.value.problems == ["tolerance must be a positive number, got True"]

    def test_identical_configs_give_identical_bytes(self):
        first = serialize(run_sweep(config(s_grid=S_GRID, psi_family=POWER_ONE)))
        second = serialize(run_sweep(config(s_grid=S_GRID, psi_family=POWER_ONE)))
        assert first == second

    def test_report_bytes_are_pinned(self):
        # a byte change across code versions, not only within one, fails here;
        # these layers are float64 only, so the pin holds whatever longdouble is
        cfg = config(
            s_grid=(0.1, 0.5, 0.9),
            psi_family=FunctionFamily.parse("q^0.5"),
            beta_family=FunctionFamily.parse("q^2"),
            tolerance=3e-16,
        )
        report = run_sweep(cfg, layers=(GATE_LAYER, NORM_RATIO_LAYER))
        # the two failures are norm-ratio rows at 4.4e-16; the deformed CNOT tables read 0
        assert report.summary["total_pass"] == 13 and report.summary["total_fail"] == 2
        digests = {fmt: hashlib.sha256(serialize(report, fmt)).hexdigest() for fmt in ("json", "csv")}
        assert digests == {
            "json": "3979e6b36b1994e02bbb5271d0b599c285b021a4afb41ab565677a98c5e44d39",
            "csv": "557ad83140e3abcc0956ceb698a7db629e52b09587176f1a8602ec26f9120dfc",
        }

    def test_report_bytes_do_not_depend_on_the_simd_level(self):
        # numpy's AVX-512 exp/sinh kernels differ from libm in the last bit on
        # some inputs; a report built with them switched off must be identical
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath as umath
        groups = [
            name
            for name in umath.__cpu_dispatch__
            if (name.startswith("AVX512") or name == "X86_V4")
            and umath.__cpu_features__.get(name)
            and name not in umath.__cpu_baseline__
        ]
        if not groups:
            pytest.skip("this host runs no AVX-512 numpy kernels")
        rng = random.Random(1)
        grid: set[float] = set()
        while len(grid) < 100:
            grid.add(round(rng.uniform(0.05, 1.0), 6))
        payload = {"s_grid": sorted(grid), "psi_family": "q", "beta_family": "q^2", "cutoff": 16}
        child = f"""
import hashlib, json, sys
from {umath.__name__} import __cpu_features__
off = {groups!r}
assert not any(__cpu_features__[name] for name in off), off
from qdgates.report import SweepConfig, run_sweep, serialize
report = run_sweep(SweepConfig.from_payload(json.loads(sys.argv[1])))
print(hashlib.sha256(serialize(report)).hexdigest())
"""
        src = str(Path(qdgates.__file__).resolve().parent.parent)
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(groups))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", child, json.dumps(payload)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = run_sweep(SweepConfig.from_payload(payload))
        assert done.stdout.strip() == hashlib.sha256(serialize(report)).hexdigest()

    def test_csv_header_snapshot(self):
        report = run_sweep(config())
        blob = serialize(report, "csv").decode()
        assert blob.splitlines()[0] == ",".join(ENTRY_COLUMNS)
        assert ENTRY_COLUMNS == (
            "check_id", "s", "cutoff", "psi1", "psi2", "beta1", "beta2",
            "residual", "pass", "note",
        )

    def test_csv_row_count(self):
        report = run_sweep(config(s_grid=(0.1, 0.5)))
        lines = serialize(report, "csv").decode().splitlines()
        assert len(lines) == 1 + len(report.entries)

    def test_unsupported_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            serialize(run_sweep(config()), "yaml")

    @settings(deadline=None)
    @given(drawn_reports())
    @example(report_of(()))
    # two points at s = NaN, two NaN objects, and json.loads reads every NaN as one
    # object: points joined by equal cells, or by cell identity, would be one point
    @example(report_of([point(s, 1.0, 1.0, 1.0, 1.0, [{"check_id": "a", "cutoff": 4, "note": "",
                                                     "pass": True, "residual": 0.0}])
                        for s in (math.nan, float("nan"))]))
    def test_json_round_trip_keeps_every_byte_and_row(self, report):
        # on values no sweep writes; each point reads back as its own, with its rows
        blob = serialize(report, "json")
        parsed = parse_report(blob)
        assert serialize(parsed, "json") == blob
        assert list(map(nan_as_text, parsed.entries)) == list(map(nan_as_text, report.entries))
        assert [len(p["rows"]) for p in parsed.points] == [len(p["rows"]) for p in report.points]
        assert list(map(nan_as_text, parsed.norm_ratio)) == list(
            map(nan_as_text, report.norm_ratio)
        )

    def test_a_sweep_writes_each_grid_point_once_with_all_its_rows(self):
        report = run_sweep(config(s_grid=S_GRID, psi_family=POWER_ONE))
        points = json.loads(serialize(report, "json"))["points"]
        assert [point["s"] for point in points] == list(S_GRID)
        assert all(len(point["rows"]) == len(ALL_CHECK_IDS) for point in points)

    def test_parsed_rows_of_one_point_share_its_cell_objects(self):
        parsed = parse_report(serialize(run_sweep(config(s_grid=S_GRID, psi_family=POWER_ONE))))
        n = len(ALL_CHECK_IDS)
        for first in range(0, len(parsed.entries), n):
            rows = parsed.entries[first:first + n]
            for column in ("s", "psi1", "psi2", "beta1", "beta2"):
                assert len({id(getattr(e, column)) for e in rows}) == 1

    def test_json_payload_has_documented_top_level_keys(self):
        payload = json.loads(serialize(run_sweep(config()), "json"))
        assert set(payload) == {
            "schema_version", "tool_version", "config", "points", "norm_ratio", "summary"
        }
        (point,) = payload["points"]
        assert set(point) == {"s", "psi1", "psi2", "beta1", "beta2", "rows"}
        for row in point["rows"]:
            assert set(row) == {"check_id", "cutoff", "note", "pass", "residual"}
            assert sorted([*point, *row]) == sorted([*ENTRY_COLUMNS, "rows"])
        assert set(payload["norm_ratio"][0]) == set(NormRatioResult._fields)

    def test_another_schema_is_refused_by_name(self):
        # a report written by schema 1, with one row per entry; it used to die with KeyError
        blob = Path(__file__).with_name("schema1_report.json").read_bytes()
        with pytest.raises(ValueError, match="^report schema '1' is not '2'$"):
            parse_report(blob)

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"[]", "^a report must be a JSON object, got list$"),
            (b'{"schema_version": "2"}',
             "^schema '2' report has no config, norm_ratio, points, summary, tool_version$"),
            (report_blob(norm_ratio=[{**SAMPLE, "measured": 2.0}, {"s": 0.5, "psi": 1.0}]),
             "^report norm_ratio sample 1 has no beta, matched_law, measured, "
             "prediction_product, prediction_sqrt$"),
            (report_blob(norm_ratio=[SAMPLE, 0.5]),
             "^report norm_ratio sample 1 is not a JSON object$"),
            (report_blob(norm_ratio={"0": SAMPLE}), "^report norm_ratio must be a list, got dict$"),
            (report_blob(norm_ratio=[SAMPLE, {**SAMPLE, "extra": 1}]),
             "^report norm_ratio sample 1 has unknown extra$"),
            (report_blob(config={"s_grid": [0.5], "extra": 1}), "^config has unknown key 'extra'$"),
            (report_blob(summary=[0, 0]), "^report summary is not a JSON object$"),
            (report_blob(summary={"total_pass": 0, "total_fail": 0}),
             "^report summary has no per_check, unexpected_failures$"),
        ],
        ids=["list", "no-keys", "sample-without-fields", "sample-not-object", "samples-not-list",
             "sample-with-unknown-key", "config-with-unknown-key", "summary-not-object",
             "summary-without-keys"],
    )
    def test_a_malformed_report_is_refused_by_name(self, blob, message):
        # these died with AttributeError, KeyError: 'points', or (the norm-ratio samples and the
        # summary) a bare TypeError or KeyError when read; a sample or a config with an unknown
        # key is refused, not trimmed, since dropping the key would change the bytes of a round trip
        assert parse_report(report_blob()).summary == SUMMARY
        with pytest.raises(ValueError, match=message):
            parse_report(blob)

    @staticmethod
    def refused(edit):
        """The message parse_report refuses a two-point sweep's report with once ``edit``
        has changed its payload."""
        payload = json.loads(serialize(run_sweep(config(s_grid=(0.1, 0.5)))))
        edit(payload)
        with pytest.raises(ValueError) as err:
            parse_report(json.dumps(payload).encode())
        return str(err.value)

    # each of these died with a bare KeyError, or parsed to a report with no rows

    def test_points_that_are_not_a_list_are_refused(self):
        def edit(payload):
            payload["points"] = dict(enumerate(payload["points"]))

        assert self.refused(edit) == "report points must be a list, got dict"

    @pytest.mark.parametrize("key", ["beta1", "beta2", "psi1", "psi2", "rows", "s"])
    def test_a_point_without_a_key_is_refused_by_its_index(self, key):
        assert self.refused(lambda payload: payload["points"][1].pop(key)) == (
            f"report point 1 has no {key}"
        )

    @pytest.mark.parametrize("key", ["check_id", "cutoff", "note", "pass", "residual"])
    def test_a_row_without_a_key_is_refused_by_its_index(self, key):
        assert self.refused(lambda payload: payload["points"][1]["rows"][2].pop(key)) == (
            f"report point 1 row 2 has no {key}"
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda payload: payload["points"].append(0.5), "report point 2 is not a JSON object"),
            (lambda payload: payload["points"][0].update(rows={}),
             "report point 0 rows must be a list, got dict"),
            (lambda payload: payload["points"][0]["rows"].append("note"),
             "report point 0 row 9 is not a JSON object"),
        ],
        ids=["point", "rows", "row"],
    )
    def test_a_point_or_row_of_another_type_is_refused_by_its_index(self, edit, message):
        assert self.refused(edit) == message


class TestInference:
    @pytest.mark.parametrize("s", S_GRID)
    def test_round_trip_recovers_the_dressing(self, s):
        p = DeformationParam(s)
        beta = p.q
        for psi in (1 / p.q, 1.0, p.q**0.5, p.q, p.q**2):
            ratio = norm_ratio_experiment(p, psi, beta).measured
            inferred = infer_psi_from_norm(ratio, beta, p).inferred_psi
            assert abs(inferred - psi) <= 1e-10 * psi

    def test_classifies_both_encodings(self):
        p = DeformationParam(0.5)
        for n_hat in (1, 2):
            zero = infer_psi_from_norm(p.q**n_hat, 1.0, p, n_hat=n_hat)
            one = infer_psi_from_norm(p.q ** (n_hat - 1), 1.0, p, n_hat=n_hat)
            assert zero.classified_n_prime == 0 and zero.log_distance < 1e-12
            assert one.classified_n_prime == 1 and one.log_distance < 1e-12

    def test_identity_fixed_point(self):
        assert infer_psi_from_norm(1.0, 1.0, DeformationParam(0.5)).inferred_psi == 1.0

    def test_sqrt_law_inversion(self):
        p = DeformationParam(0.5)
        psi, beta = p.q, p.q**2
        ratio = math.sqrt(psi * beta)
        inferred = infer_psi_from_norm(ratio, beta, p, law=LAW_SQRT).inferred_psi
        assert inferred == pytest.approx(psi, rel=1e-12)

    def test_law_is_an_explicit_parameter(self):
        p = DeformationParam(0.5)
        product = infer_psi_from_norm(2.0, 1.0, p, law=LAW_PRODUCT)
        sqrt = infer_psi_from_norm(2.0, 1.0, p, law=LAW_SQRT)
        assert product.inferred_psi == 2.0
        assert sqrt.inferred_psi == 4.0

    def test_rejects_bad_inputs(self):
        p = DeformationParam(0.5)
        with pytest.raises(ValueError):
            infer_psi_from_norm(-1.0, 1.0, p)
        with pytest.raises(ValueError):
            infer_psi_from_norm(1.0, 1.0, p, law="geometric")


class TestCli:
    def test_audit_exits_clean(self, capsys):
        assert main(["audit", "--s", "0.5", "--tol", "1e-10"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "qcommutator" in out

    def test_gates_exits_clean(self):
        assert main(["gates", "--s", "0.5", "--psi", "q", "--beta", "q^2"]) == 0

    def test_states_prints_bookkeeping(self, capsys):
        assert main(["states", "--s", "0.5", "--psi", "q"]) == 0
        out = capsys.readouterr().out
        assert "n_hat=2 n'=1" in out
        assert "-> product" in out

    def test_states_prints_amplitude_triples(self, capsys):
        assert main(["states", "--s", "0.5"]) == 0
        out = capsys.readouterr().out
        # |10> occupies (1,0,0,1): index 1*64 + 0*16 + 0*4 + 1 at cutoff 4
        assert "|10>  (65, 1, 0)" in out

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["states", "--s", "0.5", "--psi", "q"], "readme_example.txt"),
            (["states", "--s-grid", "0.1,0.5,0.9", "--psi", "q", "--beta", "q^2"],
             "three_point_grid.txt"),
            (["infer", "--s-grid", "0.1,0.5,0.9", "--psi", "q^2", "--beta", "q", "--n-hat", "2"],
             "infer_three_point_grid.txt"),
        ],
    )
    def test_states_stdout_is_pinned(self, argv, expected, capsys):
        # the whole stdout of states (basis indices and amplitude digits included) and of
        # infer (every digit of each ratio and psi), which both walk the config's grid
        assert main(argv) == 0
        pinned = Path(__file__).with_name("states_stdout") / expected
        assert capsys.readouterr().out == pinned.read_text()

    def test_unexpected_failures_exit_one(self):
        # a tolerance below the extended-precision floor flips clean checks red
        assert main(["audit", "--s", "0.9", "--tol", "1e-30"]) == 1

    def test_infer_round_trip(self, capsys):
        assert main(["infer", "--s", "0.5", "--psi", "q^2", "--beta", "q", "--n-hat", "2"]) == 0
        assert "n'=0" in capsys.readouterr().out

    def test_sweep_writes_identical_files(self, tmp_path):
        args = ["sweep", "--s-grid", "0.1,0.5,0.9", "--psi", "q", "--cutoff", "16"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_sweep_csv_output(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["sweep", "--s", "0.5", "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0].startswith("check_id,")

    def test_sweep_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s_grid": [0.2, 0.6], "psi_family": "q", "cutoff": 8}))
        out = tmp_path / "report.json"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["s_grid"] == [0.2, 0.6]

    def test_sweep_config_file_sets_the_output_format(self, tmp_path):
        # the config's output_format wins; --format is not given, so its json default must not apply
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s_grid": [0.5], "output_format": "csv"}))
        out = tmp_path / "report.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        expected = serialize(run_sweep(SweepConfig(s_grid=(0.5,), output_format="csv")))
        assert out.read_bytes() == expected
        assert out.read_text().splitlines()[0].startswith("check_id,")

    # a config file whose every key differs from its default
    FILE_CONFIG = {"s_grid": [0.2, 0.6], "psi_family": "q^0.5", "beta_family": "q^3",
                   "cutoff": 12, "tolerance": 1e-9, "output_format": "json"}

    @pytest.mark.parametrize(
        "flags,settings",
        [
            (["--psi", "q"], {"psi_family": "q"}),
            (["--beta", "q^2"], {"beta_family": "q^2"}),
            (["--tol", "1e-8"], {"tolerance": 1e-8}),
            (["--cutoff", "8"], {"cutoff": 8}),
            (["--format", "csv"], {"output_format": "csv"}),
            (["--s", "0.3"], {"s_grid": [0.3]}),
            (["--s-grid", "0.3,0.7"], {"s_grid": [0.3, 0.7]}),
            (["--format", "csv", "--cutoff", "8"], {"output_format": "csv", "cutoff": 8}),
        ],
        ids=["psi", "beta", "tol", "cutoff", "format", "s", "s-grid", "format+cutoff"],
    )
    def test_a_flag_beside_config_overrides_its_key(self, flags, settings, tmp_path):
        # each flag's key takes the flag's value, every other key keeps the file's; flags
        # given beside --config used to be ignored, so `--format csv --cutoff 8` wrote JSON
        # at the file's cutoff
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.FILE_CONFIG))
        out = tmp_path / "report"
        assert main(["sweep", "--config", str(cfg), *flags, "--out", str(out)]) == 0
        expected = SweepConfig.from_payload({**self.FILE_CONFIG, **settings})
        assert expected != SweepConfig.from_payload(self.FILE_CONFIG)
        assert out.read_bytes() == serialize(run_sweep(expected))

    @pytest.mark.parametrize(
        "command,flag",
        [("gates", "--cutoff=8"), ("states", "--cutoff=8"), ("infer", "--cutoff=8"),
         ("infer", "--format=csv"), ("infer", "--out=r.json")],
    )
    def test_a_flag_the_command_does_not_read_is_refused(self, command, flag, capsys):
        # infer used to take --out and write nothing, and gates and states took a
        # --cutoff their rows never used
        with pytest.raises(SystemExit) as refused:
            main([command, "--s", "0.5", flag])
        assert refused.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_config_errors_exit_two(self, capsys):
        assert main(["sweep", "--s-grid", "0.9,0.1"]) == 2
        assert main(["audit", "--psi", "bogus"]) == 2
        assert main(["audit", "--cutoff", "2"]) == 2
        # where q rounds to 1, a non-finite exponent used to run, and to be written as NaN
        assert main(["sweep", "--s", "1e-17", "--psi", "q^nan", "--beta", "q^inf"]) == 2
        assert capsys.readouterr().err.endswith(
            "\nconfiguration error: psi_family exponent must be finite, got nan; "
            "beta_family exponent must be finite, got inf\n"
        )
        # a 400-digit occupation used to end in an OverflowError traceback (exit 1)
        huge = "1" + "0" * 400
        assert main(["infer", "--s", "0.5", "--n-hat", huge]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: n_hat must be an integer float64 can hold, got {huge}\n"
        )
        # argparse owns the strength flags: it refuses both together, and a grid it cannot parse
        for strengths in (["--s", "0.5", "--s-grid", "0.1,0.2"], ["--s-grid", "0.1,x"]):
            with pytest.raises(SystemExit) as refused:
                main(["audit", *strengths])
            assert refused.value.code == 2
        assert "argument --s-grid: not allowed with argument --s" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload,message",
        [
            ([0.5], "config must be a JSON object, got [0.5]"),
            ({"s_grid": 0.5}, "s_grid must be a list of numbers, got 0.5"),
            ({"s_grid": [0.5], "psi_family": 2}, "psi_family must be a family string or object, got 2"),
            ({"s_grid": [0.5], "tolerance": 10**400},
             f"tolerance must be a positive number, got {10**400}"),
            ({"s_grid": [0.5, 10**400]}, f"s_grid must be a list of numbers, got [0.5, {10**400}]"),
            ({"s_grid": [0.5], "psi_family": {"kind": "power_of_q", "exponent": 10**400}},
             f"psi_family exponent must be a number (0 for family 1), got {10**400}"),
            ({"s_grid": [0.5], "beta_family": {"exponent": 2}},
             "beta_family exponent must be a number (0 for family 1), got 2"),
            ({"s_grid": [0.5], "cutof": 8}, "config has unknown key 'cutof'"),
            ({"s_grid": [2.0], "cutoff": "x", "tolerance": -1},
             "s_grid values must lie in (0, 1]; cutoff must be an integer >= 4, got 'x'; "
             "tolerance must be a positive number, got -1"),
            ({"s_grid": [0.5], "cutof": 8, "psi_family": "bogus", "tolerance": 0},
             "config has unknown key 'cutof'; psi_family must be '1', 'q' or 'q^<float>', "
             "got 'bogus'; tolerance must be a positive number, got 0"),
        ],
        ids=["list", "scalar-grid", "numeric-family", "huge-tolerance", "huge-strength",
             "huge-exponent", "constant-with-exponent", "misspelled-key", "three-problems",
             "key-family-and-field-problems"],
    )
    def test_malformed_config_file_is_a_config_error(self, payload, message, tmp_path, capsys):
        # the first three used to end in a traceback and exit 1, and so did the three
        # 400-digit integers, with OverflowError; the constant family ran psi = 1 whatever its
        # exponent, a misspelled key was ignored, and of the last two payloads' three problems
        # each only one was named
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("command", ["gates", "sweep"])
    def test_strength_where_q_rounds_to_one_passes(self, command, tmp_path):
        # exp(1e-17) is 1.0; the CNOT condition used to divide by q - 1/q == 0,
        # and the radicand's sinh form needs no q
        out = tmp_path / "report.json"
        assert main([command, "--s", "1e-17", "--out", str(out)]) == 0
        entries = parse_report(out.read_bytes()).entries
        assert len(entries) == {"gates": 4, "sweep": 9}[command]
        assert all(e.passed for e in entries)
        (cnot,) = [e for e in entries if e.check_id == "cnot_condition"]
        assert cnot.residual == 0.0

    @pytest.mark.parametrize("source", ["flag", "config-file"])
    def test_non_finite_tolerance_is_a_config_error(self, source, tmp_path, capsys):
        # an infinite tolerance used to pass every row and write "tolerance": Infinity
        argv = ["gates", "--s", "0.5", "--tol", "inf"]
        if source == "config-file":
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"s_grid": [0.5], "tolerance": Infinity}')
            argv = ["sweep", "--config", str(cfg)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "configuration error: tolerance must be finite\n"

    @pytest.mark.parametrize(
        "ratio,law",
        [("nan", LAW_PRODUCT), ("inf", LAW_PRODUCT), ("1e200", LAW_SQRT), ("1e-300", LAW_SQRT)],
        ids=["nan", "inf", "sqrt-overflow", "sqrt-underflow"],
    )
    def test_infer_rejects_a_ratio_with_no_finite_psi(self, ratio, law, capsys):
        # these used to print psi=nan or psi=inf, end in an OverflowError
        # traceback, or report a bare "math domain error"
        assert main(["infer", "--s", "0.5", "--ratio", ratio, "--law", law]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"configuration error: ratio {float(ratio)!r} under law {law!r} "
            f"gives no finite positive psi\n"
        )

    def test_zero_dressing_is_an_error_row_and_a_state_error(self):
        # psi = 5e-324, the smallest subnormal, has an argument-1 dressing that rounds
        # to 0; a sweep config refuses it (test_subnormal_family_is_a_config_error), but
        # a choice built directly still reaches the rows and the states, where the norm
        # ratio used to pass as 0 and the states used to have no amplitude
        p, choice = DeformationParam(0.05), FunctionChoice(psi1=5e-324, psi2=5e-324)
        message = "the dressed basis vector has amplitude 0 (zero dressing at argument 1)"
        (norm_row,), samples = norm_ratio_entries(config(), p, choice)
        rows = {row["check_id"]: row for row in [*gate_entries(config(), p, choice), norm_row]}
        for check_id in ("cnot_table_deformed", "norm_ratio"):
            assert rows[check_id]["note"] == f"error: {message}"
            assert rows[check_id]["residual"] == -1.0 and not rows[check_id]["pass"]
        assert samples == []
        with pytest.raises(ValueError) as err:
            two_qubit_state(1, 0, TruncatedFockSpace(4), p, choice)
        assert str(err.value) == message

    @pytest.mark.parametrize("command", ["sweep", "states"])
    def test_subnormal_family_is_a_config_error(self, command, capsys):
        # at s = 0.05, q**-14890 is 5e-324; the sweep used to report 3 unexpected
        # failures: two zero-dressing error rows and number_products overflowing float64
        assert main([command, "--s", "0.05", "--psi", "q^-14890"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "configuration error: psi_family q^-14890 is not a finite positive float "
            "at s=0.05 (5e-324 is subnormal)\n"
        )

    @pytest.mark.parametrize("command", ["audit", "gates", "states"])
    def test_unwritable_out_writes_nothing_to_stdout(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "report.json"
        assert main([command, "--s", "0.5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: [Errno 2]")
        assert captured.out == ""

    def test_overflowing_family_is_a_config_error(self, capsys):
        assert main(["sweep", "--s-grid", "0.9", "--psi", "q^900"]) == 2
        err = capsys.readouterr().err
        assert "configuration error: psi_family q^900 is not a finite positive float at s=0.9" in err

    def test_overflowing_dressing_is_an_error_row_and_a_state_error(self, tmp_path, capsys):
        # psi = q**709.7 is 1.65e308 at s = 1, and its argument-1 radicand
        # psi * sinh(1) / sinh(1) overflows; the deformed table used to write
        # a NaN residual, the norm ratio a bare unpacking error, and `states`
        # inf amplitudes
        overflow = ["--s", "1", "--psi", "q^709.7"]
        psi = FunctionFamily.parse("q^709.7").evaluate(DeformationParam(1.0).q)
        message = f"dressing radicand overflows float64 at level n=1 with psi1={psi}, psi2={psi}"
        out = tmp_path / "report.json"
        assert main(["sweep", *overflow, "--out", str(out)]) == 1

        def refuse(constant):
            raise AssertionError(f"report holds {constant}")

        blob = out.read_bytes()
        json.loads(blob, parse_constant=refuse)
        rows = {e.check_id: e for e in parse_report(blob).entries}
        for check_id in ("cnot_table_deformed", "norm_ratio"):
            assert rows[check_id].residual == -1.0 and not rows[check_id].passed
            assert rows[check_id].note == f"error: {message}"
        capsys.readouterr()
        assert main(["states", *overflow]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {message}\n"
        assert captured.out == ""

    def test_overflowing_beta_lists_the_cnot_condition_as_an_error_row(self, capsys):
        # beta = q**709.7 overflows the argument-1 radicand at s = 1; the
        # condition used to print PASS beside the deformed table's error row
        assert main(["gates", "--s", "1", "--beta", "q^709.7"]) == 1
        lines = capsys.readouterr().out.splitlines()
        (condition,) = [line for line in lines if " cnot_condition " in line]
        assert condition.startswith("FAIL s=1 cnot_condition residual=-1.000e+00  [error: ")
        assert "swap-condition radicand overflows float64 at argument 1" in condition
        assert lines[-1] == "summary: 2 pass, 2 fail (2 unexpected)"

    def test_longdouble_band_overflow_is_named_and_silent(self, capsys):
        # at s = 1 sinh(n) overflows longdouble below cutoff 20000, and every
        # residual used to be nan behind numpy RuntimeWarnings on stderr
        assert main(["audit", "--s-grid", "0.5,1", "--cutoff", "20000"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        with np.errstate(over="ignore"):
            finite = np.isfinite(np.sinh(np.arange(1, 20000, dtype=np.longdouble)))
        level = int(np.argmin(finite)) + 1
        at_one = [line for line in captured.out.splitlines() if line.startswith("FAIL s=1 ")]
        assert [line.split()[2] for line in at_one] == sorted(ALGEBRA_CHECK_IDS)
        for line, check_id in zip(at_one, sorted(ALGEBRA_CHECK_IDS)):
            assert line.endswith(
                f"[error: {check_id} residual is not finite: "
                f"the ladder band overflows longdouble from level n={level}]"
            )
        assert "got nan" not in captured.out

    def test_number_spectrum_overflow_is_named_and_silent(self, capsys):
        # psi2 = e**-700 shifts nu up by 700 levels: at cutoff 11000 the band is finite
        # but [N+1] = sinh(s (nu + 1)) / sinh(s) is not, and the row used to read "got inf"
        assert main(["audit", "--s-grid", "1", "--psi", "q^-700", "--cutoff", "11000"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        psi = FunctionFamily.parse("q^-700").evaluate(DeformationParam(1.0).q)
        nu = np.arange(11000 - 2, dtype=np.longdouble) - np.log(np.longdouble(psi))
        with np.errstate(over="ignore"):
            finite = np.isfinite(np.sinh(nu + 1) / np.sinh(np.longdouble(1)))
        level = int(np.argmin(finite))
        assert 0 < level
        (line,) = [line for line in captured.out.splitlines() if " number_products " in line]
        assert line.endswith(
            "[error: number_products residual is not finite: "
            f"the deformed number spectrum overflows longdouble from level n={level}]"
        )
        assert "got inf" not in captured.out

    def test_norm_ratio_overflow_is_an_error_row(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["sweep", "--s", "1", "--psi", "q^400", "--beta", "q^400", "--out", str(out)]) == 1
        blob = out.read_bytes()
        assert b"NaN" not in blob and b"Infinity" not in blob
        report = parse_report(blob)
        (row,) = [e for e in report.entries if e.check_id == "norm_ratio"]
        assert row.residual == -1.0 and not row.passed
        assert row.note == (
            "error: norm ratio overflows float64: measured 2.726e+347, product prediction 2.726e+347"
        )
        assert report.norm_ratio == ()


# one command per exit status: all checks pass, an unexpected failure, a configuration error
EXIT_CASES = [
    (["sweep", "--s", "0.5"], 0),
    (["audit", "--s", "0.5", "--tol", "5e-324"], 1),
    (["sweep", "--s", "2"], 2),
]


class TestEntryPoint:
    @pytest.fixture
    def unfreeze(self):
        yield
        gc.unfreeze()

    def test_main_leaves_the_heap_unfrozen(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["sweep", "--s", "0.5", "--out", str(tmp_path / "report.json")]) == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv,code", EXIT_CASES)
    def test_run_freezes_the_heap_and_exits_with_mains_code(
        self, argv, code, monkeypatch, capsys, unfreeze
    ):
        monkeypatch.setattr(sys, "argv", ["qdgates", *argv])
        with pytest.raises(SystemExit) as done:
            run()
        assert done.value.code == code
        assert gc.get_freeze_count() > 0

    @pytest.mark.parametrize("argv,code", EXIT_CASES)
    def test_the_module_run_writes_what_main_writes(self, argv, code, capsys):
        src = str(Path(qdgates.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-m", "qdgates.cli", *argv],
            env=env, capture_output=True, timeout=120,
        )
        assert main(argv) == done.returncode == code
        captured = capsys.readouterr()
        assert done.stdout.decode("utf-8") == captured.out
        assert done.stderr.decode("utf-8") == captured.err
