"""Benchmark for qdgates: sweep, CLI and set-up cost over three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload audit-deep --seed 1 --seconds 45 --trace 0

The benchmark drives the package from outside.  It generates one sweep
config from the workload name and the seed, then

* ``--trace 0`` times fresh ``import qdgates`` subprocesses (``setup_s``),
  ``python -m qdgates.cli sweep`` subprocesses (``cli_s``, ``peak_rss_mb``)
  and warm in-process ``run_sweep`` + ``serialize`` calls (``sweep_s_p50``,
  ``sweep_s_tail``), with no tracing installed;
* ``--trace 1`` wraps every public function of every package module at each
  name a module looks it up by, alternates traced and untraced sweeps, and
  reports per-layer call counts, self times and sizes.

Every sweep and CLI run is checked byte for byte against a fully checked
reference report of the same config, so every run yields the same rows.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` is the rows of the
config's report and ``failed`` the rows that fail without the expected-failure
mark, plus error rows; both depend on the seed alone, not on how many runs fit
in ``--seconds``.  If any run fails a check, every row counts as failed and
the command exits 1.  The line before the result is a record of the
environment and the details behind each metric.
Trace spans are written to ``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

LAYERS = ("qnumber", "fockspace", "audit", "qubits", "gates", "report", "cli")
ROWS_PER_POINT = 9
SETUP_SAMPLES = 5
# Set-up samples a timed run reaches by its deadline, spread over its rounds.
MIN_SETUP_SAMPLES = 25
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 2
# In-process sweep time per round, as a multiple of the round's CLI run time.
IN_PROCESS_SHARE = 1.5
SUBPROCESS_TIMEOUT_S = 90.0
TAIL_BEYOND = 10
TAIL_CAP = 95.0

# Why each timed workload exists is recorded in BENCHMARK.json.  cli-short is
# not timed there: on a noisy 2-vCPU host its start-up-dominated times spread
# as widely as the others', and dropping it buys the other two longer runs.
# It remains the smoke test's smallest size and the only CSV config.  Families
# use the CLI spelling, which SweepConfig.from_payload parses.
WORKLOADS = {
    "audit-deep": {"points": 3, "cutoff": 256, "psi": "1", "beta": "1", "format": "json"},
    "sweep-wide": {"points": 100, "cutoff": 16, "psi": "q", "beta": "q^2", "format": "json"},
    "cli-short": {"points": 3, "cutoff": 16, "psi": "q^0.5", "beta": "1", "format": "csv"},
}

# Per-layer metrics: (function, what) pairs computed from the traced spans.
CALLS_PER_POINT = (
    "fockspace.deformed_ladder_ops",
    "fockspace.dressing_diag",
    "fockspace.ladder_ops",
    "qubits.two_qubit_state",
    "qubits.basis_two_qubit_state",
    "qnumber.q_factorial",
    "gates.cnot_truth_table",
)
SELF_MS_PER_POINT = (
    "fockspace.deformed_ladder_ops",
    "fockspace.dressing_diag",
    "audit.check_qcommutator",
    "audit.check_number_commutators",
    "audit.check_number_products",
    "audit.check_shift_rule",
    "gates.cnot_truth_table",
)
MODULE_SELF_MS_PER_POINT = ("audit", "qubits", "gates")
MS_PER_POINT = (
    "qubits.norm_ratio_experiment",
    "gates.check_not_condition",
    "gates.check_cnot_condition",
    "report.algebra_entries",
    "report.gate_entries",
    "report.norm_ratio_entries",
)
MS_PER_SWEEP = ("report.build_report", "report.serialize", "report.parse_report")


class BenchmarkError(Exception):
    """The benchmark cannot run here (for example, the package is missing)."""


def load_package():
    """Import the layer modules from ``src`` of this checkout and nowhere else."""
    if not (SRC / "qdgates" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source at {SRC / 'qdgates'}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"qdgates.{name}") for name in LAYERS}
    origin = Path(modules["report"].__file__).resolve()
    if SRC not in origin.parents:
        raise BenchmarkError(f"qdgates was imported from {origin}, not from {SRC}")
    return modules


def make_config(workload: str, seed: int) -> dict:
    """The sweep config payload for one workload, drawn from the seed."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    grid: set[float] = set()
    while len(grid) < spec["points"]:
        s = round(rng.uniform(0.05, 1.0), 6)
        if 0.05 < s <= 1.0:
            grid.add(s)
    return {
        "s_grid": sorted(grid),
        "psi_family": spec["psi"],
        "beta_family": spec["beta"],
        "cutoff": spec["cutoff"],
        "tolerance": 1e-10,
        "output_format": spec["format"],
    }


def failed_rows(report, error_residual: float) -> int:
    """Rows that fail without the expected-failure mark, plus error rows."""
    return sum(
        1
        for e in report.entries
        if not e.passed and (e.expected_pass() or e.residual == error_residual)
    )


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The tail latency: (value, percentile, samples beyond it).

    The highest percentile, up to TAIL_CAP, that leaves at least TAIL_BEYOND
    samples beyond it.  The cap keeps the tail of a run with many short
    samples from resting on its ten worst host hiccups.  With too few
    samples for that percentile to lie above the median, the tail is the
    maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    beyond = max(TAIL_BEYOND, math.ceil(n * (1 - TAIL_CAP / 100)))
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def run_process(argv: list[str], env: dict, stderr_path: Path) -> tuple[float, int, float]:
    """Run one subprocess to completion; return (wall s, exit code, max RSS MiB).

    The process is killed if it outlives SUBPROCESS_TIMEOUT_S, and it is
    always reaped before this returns.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


class Tracer:
    """Spans at every module boundary of the package, held in memory.

    A span is (name, start, end, parent index, run id, result size); the
    parent index points into the same run's list.  While a run is traced,
    wrappers replace every name a package module looks a public function up
    by, its own module included.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._replaced: list[tuple] = []

    @contextlib.contextmanager
    def run(self, run_id: int):
        """Trace the calls made inside the block; yields their span list."""
        self.spans, self.run_id, self._stack = [], run_id, []
        self._install()
        try:
            yield self.spans
        finally:
            for consumer, name, fn in reversed(self._replaced):
                setattr(consumer, name, fn)
            self._replaced.clear()

    def _install(self) -> None:
        for layer, module in self.modules.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for consumer in self.modules.values():
                    if vars(consumer).get(name) is fn:
                        self._replaced.append((consumer, name, fn))
                        setattr(consumer, name, wrapper)

    def _wrap(self, label: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, self.run_id, _size(result))

        return traced


def _size(result) -> int:
    """Bytes held by arrays or byte strings a call returned."""
    if isinstance(result, (bytes, bytearray)):
        return len(result)
    if isinstance(result, (tuple, list)):
        return sum(_size(r) for r in result)
    return result.nbytes if isinstance(result, np.ndarray) else 0


def layer_metrics(spans: list[tuple], points: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the spans of one traced run."""
    child_ms = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_ms[parent] += (end - start) * 1e3
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    total_ms: dict[str, float] = {}
    size: dict[str, int] = {}
    for i, (name, start, end, _, _, nbytes) in enumerate(spans):
        module = name.split(".")[0]
        duration = (end - start) * 1e3
        calls[name] = calls.get(name, 0) + 1
        for key in (name, module):
            self_ms[key] = self_ms.get(key, 0.0) + duration - child_ms[i]
            size[key] = size.get(key, 0) + nbytes
        total_ms[name] = total_ms.get(name, 0.0) + duration
    out: dict[str, tuple[float, str]] = {}
    for name in CALLS_PER_POINT:
        out[f"{name}.calls_per_point"] = (calls.get(name, 0) / points, "count")
    for name in SELF_MS_PER_POINT + MODULE_SELF_MS_PER_POINT:
        out[f"{name}.self_ms_per_point"] = (self_ms.get(name, 0.0) / points, "ms")
    for name in MS_PER_POINT:
        out[f"{name}.ms_per_point"] = (total_ms.get(name, 0.0) / points, "ms")
    for name in MS_PER_SWEEP:
        out[f"{name}.ms"] = (total_ms.get(name, 0.0), "ms")
    out["report.serialize.bytes"] = (size.get("report.serialize", 0), "bytes")
    # nbytes of the returned arrays, computed from their shapes
    out["fockspace.result_bytes_per_point"] = (size.get("fockspace", 0) / points, "bytes-computed")
    return out


class Bench:
    def __init__(self, modules: dict, workload: str, seed: int, seconds: float, work: Path):
        self.m = modules
        self.report = modules["report"]
        self.seconds = seconds
        self.work = work
        self.payload = make_config(workload, seed)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.payload, indent=2) + "\n")
        self.config = self.report.SweepConfig.from_payload(json.loads(self.config_path.read_text()))
        self.points = len(self.config.s_grid)
        self.rows = ROWS_PER_POINT * self.points
        self.fmt = self.config.output_format
        # --format repeats the config's output format: `sweep --config`
        # writes with the --format flag, whose default is json.
        self.cli_args = [
            "sweep", "--config", str(self.config_path), "--format", self.fmt,
            "--out", str(work / f"cli-out.{self.fmt}"),
        ]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.checked = 0
        self.problems: list[str] = []

    # -- checks ---------------------------------------------------------

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def reference(self) -> None:
        """Build and fully check the reference report (this also warms up)."""
        r = self.report
        if self.config.s_grid != tuple(self.payload["s_grid"]):
            self.problem("config s_grid does not round-trip through the config file")
        rep = r.run_sweep(self.config)
        blob = r.serialize(rep)
        if r.serialize(rep) != blob:
            self.problem("two serialize calls gave different bytes")
        per_point: dict[float, int] = {}
        for e in rep.entries:
            per_point[e.s] = per_point.get(e.s, 0) + 1
            ok = e.residual == r.ERROR_RESIDUAL or (math.isfinite(e.residual) and e.residual >= 0)
            if not ok:
                self.problem(f"{e.check_id} at s={e.s}: residual {e.residual!r}")
        if sorted(per_point) != sorted(self.config.s_grid) or set(per_point.values()) != {ROWS_PER_POINT}:
            self.problem(f"expected {ROWS_PER_POINT} rows at each grid point, got {per_point}")
        self.json_blob = r.serialize(rep, "json")
        parsed = r.parse_report(self.json_blob)
        if r.serialize(parsed, "json") != self.json_blob or r.serialize(parsed) != blob:
            self.problem("parse_report(serialize(r)) does not serialize back to the same bytes")
        self.blob = blob
        self.ref_failed = failed_rows(rep, r.ERROR_RESIDUAL)
        self.expected_exit = 1 if rep.unexpected_failures() else 0
        self.sha256 = hashlib.sha256(blob).hexdigest()

    @property
    def failed(self) -> int:
        return self.rows if self.problems else self.ref_failed

    def check_sample(self, blob: bytes, what: str) -> None:
        self.checked += 1
        if blob != self.blob:
            self.problem(f"{what}: report bytes differ from the reference")

    # -- timed pieces ---------------------------------------------------

    def sweep_sample(self) -> float:
        """One warm in-process run_sweep + serialize; returns seconds."""
        r = self.report
        try:
            start = time.perf_counter()
            rep = r.run_sweep(self.config)
            blob = r.serialize(rep)
            elapsed = time.perf_counter() - start
        except Exception:
            self.problem("in-process sweep raised:\n" + traceback.format_exc(limit=4))
            return math.nan
        self.check_sample(blob, "in-process sweep")
        return elapsed

    def cli_sample(self) -> tuple[float, float]:
        """One `python -m qdgates.cli sweep` subprocess; returns (s, MiB)."""
        out = Path(self.cli_args[-1])
        out.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "qdgates.cli", *self.cli_args]
        elapsed, code, rss = run_process(argv, self.env, self.work / "cli-stderr.txt")
        self.checked += 1
        same = out.is_file() and out.read_bytes() == self.blob
        if not (code == self.expected_exit and same):
            err = (self.work / "cli-stderr.txt").read_text(errors="replace")[-2000:]
            self.problem(f"cli run: exit {code} (expected {self.expected_exit}), output "
                         f"{'matches' if same else 'differs from'} the reference; {err}")
        return elapsed, rss

    def setup_sample(self) -> float:
        argv = [sys.executable, "-c", "import qdgates"]
        elapsed, code, _ = run_process(argv, self.env, self.work / "setup-stderr.txt")
        if code != 0:
            err = (self.work / "setup-stderr.txt").read_text(errors="replace")[-2000:]
            raise BenchmarkError(f"`import qdgates` exited {code}: {err}")
        return elapsed

    # -- runs -----------------------------------------------------------

    def run_timed(self) -> tuple[dict, dict]:
        """End-to-end metrics, tracing off."""
        self.setup_sample()  # warm the bytecode cache; also proves the import works
        setup = [self.setup_sample() for _ in range(SETUP_SAMPLES)]
        self.reference()
        sweeps: list[float] = []
        cli: list[float] = []
        rss: list[float] = []
        start = time.perf_counter()
        deadline = start + self.seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            # one set-up sample a round, and more on workloads with few long
            # rounds, so that the median rests on MIN_SETUP_SAMPLES samples
            # taken across the whole run
            share = min(1.0, (time.perf_counter() - start) / self.seconds) if self.seconds else 0.0
            setup.append(self.setup_sample())
            while len(setup) < MIN_SETUP_SAMPLES * share:
                setup.append(self.setup_sample())
            elapsed, peak = self.cli_sample()
            cli.append(elapsed)
            rss.append(peak)
            # at least one in-process sample, then more while another one
            # fits in IN_PROCESS_SHARE times the CLI run (nan stops the loop)
            budget = IN_PROCESS_SHARE * elapsed
            spent = 0.0
            while True:
                sample = self.sweep_sample()
                sweeps.append(sample)
                spent += sample
                if not spent + sample <= budget:
                    break
            rounds += 1
        sweeps = [x for x in sweeps if math.isfinite(x)] or [math.nan]
        value, pct, beyond = tail(sweeps)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "cli_s": (statistics.median(cli), "s"),
            "sweep_s_p50": (statistics.median(sweeps), "s"),
            "sweep_s_tail": (value, "s"),
            "peak_rss_mb": (statistics.median(rss), "MiB"),
        }
        detail = {
            "samples": {"setup_s": len(setup), "cli_s": len(cli), "sweep_s": len(sweeps)},
            "sweep_s_tail": {"percentile": round(pct, 2), "samples_beyond": beyond,
                             "samples": len(sweeps)},
            "rounds": rounds,
        }
        return metrics, detail

    def run_traced(self) -> tuple[dict, dict, list]:
        """Per-layer metrics from traced sweeps, plus the tracing overhead.

        Each traced sweep is one run id; the spans of the first one and of
        the traced CLI call (run id 0) are kept for the spans file, the
        others are reduced to their metrics as soon as the sweep ends.
        """
        r = self.report
        self.reference()
        tracer = Tracer(self.m)
        plain: list[float] = []
        traced: list[float] = []
        per_run: list[dict] = []
        kept: list[tuple] = []
        deadline = time.perf_counter() + self.seconds
        rounds = 0
        while rounds < MIN_TRACE_ROUNDS or time.perf_counter() < deadline:
            plain.append(self.sweep_sample())
            rounds += 1
            with tracer.run(rounds) as spans:
                start = time.perf_counter()
                rep = r.run_sweep(self.config)
                blob = r.serialize(rep)
                traced.append(time.perf_counter() - start)
                r.parse_report(self.json_blob)
            self.check_sample(blob, "traced sweep")
            per_run.append(layer_metrics(spans, self.points))
            if rounds == 1:
                kept.extend(spans)
        metrics = {k: (statistics.median(run[k][0] for run in per_run), unit)
                   for k, (_, unit) in per_run[0].items()}

        # one in-process CLI call, traced, for the front end's own time
        out = Path(self.cli_args[-1])
        out.unlink(missing_ok=True)
        with tracer.run(0) as spans, contextlib.redirect_stdout(io.StringIO()):
            code = self.m["cli"].main(list(self.cli_args))
        self.checked += 1
        if not (code == self.expected_exit and out.is_file() and out.read_bytes() == self.blob):
            self.problem(f"in-process cli.main: exit {code} (expected {self.expected_exit})")
        main = next(i for i, sp in enumerate(spans) if sp[0] == "cli.main")
        children = sum(sp[2] - sp[1] for sp in spans if sp[3] == main)
        metrics["cli.main.self_ms"] = ((spans[main][2] - spans[main][1] - children) * 1e3, "ms")
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        metrics["trace.overhead_share"] = (overhead, "ratio")
        kept.extend(spans)

        point_ms = {k: metrics[f"report.{k}_entries.ms_per_point"][0]
                    for k in ("algebra", "gate", "norm_ratio")}
        total = sum(point_ms.values())
        detail = {
            "rounds": rounds,
            "samples": {"untraced": len(plain), "traced": len(traced)},
            "point_split": {k: round(v / total, 4) for k, v in point_ms.items()},
        }
        return metrics, detail, kept


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "nproc": len(os.sched_getaffinity(0)),
    }


def write_spans(path: Path, header: dict, spans: list) -> None:
    """One JSON header line, then one line per span, times in ms from the first."""
    t0 = min((sp[1] for sp in spans), default=0.0)
    header = dict(header, columns=["name", "start_ms", "end_ms", "parent", "run_id", "bytes"],
                  parent="index among the spans of the same run id, in file order")
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for name, start, end, parent, run_id, nbytes in spans:
            fh.write(json.dumps([name, round((start - t0) * 1e3, 6), round((end - t0) * 1e3, 6),
                                 parent, run_id, nbytes]) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        modules = load_package()
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
            bench = Bench(modules, args.workload, args.seed, args.seconds, Path(tmp))
            spans = None
            if args.trace:
                metrics, detail, spans = bench.run_traced()
            else:
                metrics, detail = bench.run_timed()
    except (BenchmarkError, ImportError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "config": bench.payload,
        "report_sha256": bench.sha256,
        "report_bytes": len(bench.blob),
        "check_fail_share": {"value": bench.failed / bench.rows, "unit": "ratio",
                             "failed_rows": bench.failed, "attempted_rows": bench.rows,
                             "runs_checked": bench.checked},
        "detail": detail,
        "problems": bench.problems,
    }
    if spans is not None:
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(path, {k: record[k] for k in ("workload", "environment", "config")}, spans)
        record["spans_file"] = str(path.relative_to(ROOT))
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    print(f"{'check_fail_share':<48} {record['check_fail_share']['value']:>16.6g} ratio")
    for text in bench.problems:
        print(f"perfbench: check failed: {text}", file=sys.stderr)
    correct = not bench.problems
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.rows,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
