import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qdgates
from qdgates.cli import main
from qdgates.fockspace import FunctionFamily
from qdgates.gates import cnot_truth_table
from qdgates.qnumber import DeformationParam
from qdgates.qubits import norm_ratio_experiment
from qdgates.report import (
    ALGEBRA_LAYER,
    ConfigError,
    ENTRY_COLUMNS,
    GATE_LAYER,
    LAW_PRODUCT,
    LAW_SQRT,
    NORM_RATIO_LAYER,
    REGISTERED_CHECKS,
    SWEEP_LAYERS,
    SweepConfig,
    infer_psi_from_norm,
    parse_report,
    run_sweep,
    serialize,
)

S_GRID = (0.1, 0.5, 0.9)
POWER_ONE = FunctionFamily("power_of_q", 1.0)


def config(**kwargs):
    kwargs.setdefault("s_grid", (0.5,))
    return SweepConfig(**kwargs)


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

    def test_payload_round_trip(self):
        c = config(s_grid=(0.1, 0.4), psi_family=POWER_ONE, cutoff=8, tolerance=1e-9)
        assert SweepConfig.from_payload(c.to_payload()) == c

    @pytest.mark.parametrize(
        "field,value", [("cutoff", 16.5), ("cutoff", True), ("cutoff", math.inf), ("tolerance", True)]
    )
    def test_payload_rejects_values_a_conversion_would_change(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be"):
            SweepConfig.from_payload({"s_grid": [0.5], field: value})

    def test_payload_accepts_an_integral_float_cutoff(self):
        c = SweepConfig.from_payload({"s_grid": [0.5], "cutoff": 16.0})
        assert c.cutoff == 16 and isinstance(c.cutoff, int)

    @pytest.mark.parametrize("exponent,bad_s", [(900.0, 0.9), (-2000.0, 0.9), (math.nan, 0.1)])
    def test_rejects_families_that_are_not_finite_positive_floats(self, exponent, bad_s):
        # on (0.1, 0.9), q**900 overflows and q**-2000 underflows to 0 only at 0.9
        family = FunctionFamily("power_of_q", exponent)
        with pytest.raises(ConfigError, match=f"beta_family .* finite positive float at s={bad_s}"):
            config(s_grid=(0.1, 0.9), beta_family=family)


class TestRunSweep:
    def test_unit_functions_pass_everything(self):
        report = run_sweep(config(s_grid=(0.5,), cutoff=16, tolerance=1e-10))
        assert len(report.entries) == len(REGISTERED_CHECKS)
        assert report.summary["total_fail"] == 0
        assert report.unexpected_failures() == 0

    def test_nonunit_family_fails_only_the_product_relation(self):
        report = run_sweep(config(s_grid=S_GRID, psi_family=POWER_ONE))
        assert len(report.entries) == len(S_GRID) * len(REGISTERED_CHECKS)
        products = [e for e in report.entries if e.check_id == "number_products"]
        flips = [e for e in report.entries if e.check_id == "not_condition"]
        assert len(products) == len(S_GRID) and all(not e.passed for e in products)
        assert all("expected failure" in e.note for e in products)
        assert len(flips) == len(S_GRID) and all(e.passed for e in flips)
        assert report.unexpected_failures() == 0

    def test_summary_matches_entry_tally(self):
        report = run_sweep(config(s_grid=(0.1, 0.5), psi_family=POWER_ONE))
        passed = sum(1 for e in report.entries if e.passed)
        failed = sum(1 for e in report.entries if not e.passed)
        assert report.summary["total_pass"] == passed
        assert report.summary["total_fail"] == failed
        per_check = report.summary["per_check"]
        for check_id in REGISTERED_CHECKS:
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
        import qdgates.report as report_module

        def broken(*args, **kwargs):
            raise ValueError("rigged dressing failure")

        monkeypatch.setattr(report_module, "algebra_residuals", broken)
        report = run_sweep(config(s_grid=(0.5,)))
        assert len(report.entries) == len(REGISTERED_CHECKS)
        errored = [e for e in report.entries if e.note.startswith("error:")]
        assert len(errored) == 4
        assert all(e.residual == -1.0 and not e.passed for e in errored)
        assert report.unexpected_failures() == 4


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

    def test_plain_truth_table_runs_once_per_sweep(self, monkeypatch):
        import qdgates.report as report_module

        calls = []

        def counted(*args, **kwargs):
            # a plain table is called with no arguments, a dressed one with its dressing
            calls.append(bool(args or kwargs))
            return cnot_truth_table(*args, **kwargs)

        monkeypatch.setattr(report_module, "cnot_truth_table", counted)
        run_sweep(config(s_grid=S_GRID))
        assert calls.count(False) == 1
        assert calls.count(True) == len(S_GRID)

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


class TestSerialization:
    def test_json_round_trip(self):
        report = run_sweep(config(s_grid=(0.1, 0.5), psi_family=POWER_ONE))
        assert parse_report(serialize(report, "json")) == report

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
        assert report.summary["total_pass"] == 12 and report.summary["total_fail"] == 3
        digests = {fmt: hashlib.sha256(serialize(report, fmt)).hexdigest() for fmt in ("json", "csv")}
        assert digests == {
            "json": "2d3f0e8b9ec206d416150c9d456bd3cfab39e4fe562a19c00b188c5a5f37fe60",
            "csv": "3cfcfd80c2d2f081b8d7c78dcabc4ee5545b9406fd230aa9591895ab8ef0849c",
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

    def test_json_payload_has_documented_top_level_keys(self):
        payload = json.loads(serialize(run_sweep(config()), "json"))
        for key in ("schema_version", "config", "entries", "summary"):
            assert key in payload
        entry = payload["entries"][0]
        assert tuple(sorted(entry)) == tuple(sorted(ENTRY_COLUMNS))


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
            (["--s", "0.5", "--psi", "q"], "readme_example.txt"),
            (["--s-grid", "0.1,0.5,0.9", "--psi", "q", "--beta", "q^2"], "three_point_grid.txt"),
        ],
    )
    def test_states_stdout_is_pinned(self, argv, expected, capsys):
        # the whole stdout, basis indices and amplitude digits included
        assert main(["states", *argv]) == 0
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

    def test_config_errors_exit_two(self):
        assert main(["sweep", "--s-grid", "0.9,0.1"]) == 2
        assert main(["audit", "--psi", "bogus"]) == 2
        assert main(["audit", "--s", "0.5", "--s-grid", "0.1,0.2"]) == 2
        assert main(["audit", "--cutoff", "2"]) == 2

    @pytest.mark.parametrize(
        "payload,message",
        [
            ([0.5], "config must be a JSON object, got [0.5]"),
            ({"s_grid": 0.5}, "s_grid must be a list of numbers, got 0.5"),
            ({"s_grid": [0.5], "psi_family": 2}, "psi_family must be a family string or object, got 2"),
        ],
        ids=["list", "scalar-grid", "numeric-family"],
    )
    def test_malformed_config_file_is_a_config_error(self, payload, message, tmp_path, capsys):
        # each of these used to end in a traceback and exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("command", ["gates", "sweep"])
    def test_strength_where_q_rounds_to_one_is_an_error_row(self, command, tmp_path):
        # exp(1e-17) is 1.0, so the CNOT condition's q - 1/q is 0
        out = tmp_path / "report.json"
        assert main([command, "--s", "1e-17", "--out", str(out)]) == 1
        entries = json.loads(out.read_bytes())["entries"]
        errors = [e for e in entries if e["residual"] == -1.0]
        assert [e["check_id"] for e in errors] == ["cnot_condition"]
        assert errors[0]["note"] == "error: q = exp(s) rounds to 1 at s=1e-17, so q - 1/q is 0"
        assert all(e["pass"] for e in entries if e is not errors[0])

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

    def test_zero_dressing_is_an_error_row_and_a_state_error(self, tmp_path, capsys):
        # at s = 0.05, psi = q**-14890 is the smallest subnormal, whose
        # argument-1 dressing rounds to 0; the norm ratio used to pass as 0
        # and `states` used to print states with no amplitude
        zero = ["--s", "0.05", "--psi", "q^-14890"]
        message = "the dressed basis vector has amplitude 0 (zero dressing at argument 1)"
        out = tmp_path / "report.json"
        assert main(["sweep", *zero, "--out", str(out)]) == 1
        rows = {e["check_id"]: e for e in json.loads(out.read_bytes())["entries"]}
        for check_id in ("cnot_table_deformed", "norm_ratio"):
            assert rows[check_id]["note"] == f"error: {message}"
        capsys.readouterr()
        assert main(["states", *zero]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {message}\n"
        assert captured.out == ""

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

    def test_norm_ratio_overflow_is_an_error_row(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["sweep", "--s", "1", "--psi", "q^400", "--beta", "q^400", "--out", str(out)]) == 1
        blob = out.read_bytes()
        assert b"NaN" not in blob and b"Infinity" not in blob
        payload = json.loads(blob)
        (row,) = [e for e in payload["entries"] if e["check_id"] == "norm_ratio"]
        assert row["residual"] == -1.0 and not row["pass"]
        assert row["note"] == (
            "error: norm ratio overflows float64: measured 2.726e+347, product prediction 2.726e+347"
        )
        assert payload["norm_ratio"] == []
