"""Command-line front end; each subcommand exercises one slice of the suite.

Exit status: 0 when every check expected to pass did pass, 1 on any
unexpected failure, 2 on a configuration error.  :func:`run` is the process
entry point (``python -m qdgates.cli`` and the ``qdgates`` script);
:func:`main` is the same command for a caller in the process.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import fields

from .qubits import (
    LAW_PRODUCT,
    LAW_SQRT,
    QUBIT_CUTOFF,
    TruncatedFockSpace,
    case2_consistency_table,
    norm_ratio_experiment,
    two_qubit_state,
)
from .report import (
    ALGEBRA_LAYER,
    DEFAULT_LAW,
    GATE_LAYER,
    NORM_RATIO_LAYER,
    SWEEP_LAYERS,
    SweepConfig,
    infer_psi_from_norm,
    run_sweep,
    serialize,
)

DEFAULT_S_GRID = (0.1, 0.5, 0.9)


def float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdgates",
        description="deformed-oscillator algebra and gate-condition verification",
    )
    # each subcommand takes only the flags it reads: gates and states build every
    # row at QUBIT_CUTOFF, and infer writes no report; a settings flag not given
    # is None, and the config's own default applies; each flag's dest is its config key
    common = argparse.ArgumentParser(add_help=False)
    strengths = common.add_mutually_exclusive_group()
    strengths.add_argument("--s", type=float, nargs=1, dest="s_grid", metavar="S",
                           help="single deformation strength in (0, 1]")
    strengths.add_argument("--s-grid", type=float_list,
                           help="comma-separated strictly increasing strengths")
    common.add_argument("--psi", dest="psi_family", help="control dressing family: 1, q or q^<float>")
    common.add_argument("--beta", dest="beta_family", help="target dressing family: 1, q or q^<float>")
    common.add_argument("--tol", type=float, dest="tolerance", help="pass/fail tolerance")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv"), dest="output_format")
    output.add_argument("--out", help="write the serialized report to this path")
    cutoff = argparse.ArgumentParser(add_help=False)
    cutoff.add_argument("--cutoff", type=int,
                        help=f"retained Fock levels (default {SweepConfig.cutoff})")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("audit", parents=[common, cutoff, output], help="operator-identity checks")
    sub.add_parser("gates", parents=[common, output], help="gate conditions and truth tables")
    sub.add_parser("states", parents=[common, output], help="state bookkeeping tables and norm ratios")

    infer = sub.add_parser("infer", parents=[common], help="recover a dressing value from a norm ratio")
    infer.add_argument("--ratio", type=float, help="measured norm ratio (default: computed forward)")
    infer.add_argument("--n-hat", type=int, default=1, help="plain occupation for classification")
    infer.add_argument("--law", choices=(LAW_PRODUCT, LAW_SQRT), default=DEFAULT_LAW)

    sweep = sub.add_parser("sweep", parents=[common, cutoff, output], help="the checks of every layer")
    sweep.add_argument("--config", help="JSON config file; a flag given beside it overrides its key")
    return parser


def _config_from_args(args) -> SweepConfig:
    """The ``--config`` file's object, or the default grid's, with each settings flag
    that was given laid over it."""
    payload = {"s_grid": DEFAULT_S_GRID}
    if getattr(args, "config", None):
        with open(args.config, "rb") as fh:
            payload = json.load(fh)
    overrides = {f.name: getattr(args, f.name, None) for f in fields(SweepConfig)}
    if isinstance(payload, dict):
        payload = {**payload, **{k: v for k, v in overrides.items() if v is not None}}
    return SweepConfig.from_payload(payload)


def _entry_lines(report):
    """A line per row, then the summary's, each formatted as it is printed."""
    for e in report.entries:
        status = "PASS" if e.passed else "FAIL"
        line = f"{status} s={e.s:g} {e.check_id} residual={e.residual:.3e}"
        yield f"{line}  [{e.note}]" if e.note else line
    yield (
        f"summary: {report.summary['total_pass']} pass, {report.summary['total_fail']} fail "
        f"({report.summary['unexpected_failures']} unexpected)"
    )


def _state_lines(report) -> list[str]:
    space = TruncatedFockSpace(QUBIT_CUTOFF)
    lines = []
    for p, choice in report.config.grid():
        lines.append(f"s={p.s:g} deformed-occupation bookkeeping:")
        for row in case2_consistency_table(p):
            lines.append(
                f"  |{row.state_label}>  psi={row.psi_rule} beta={row.beta_rule}  "
                f"n_hat={row.control.n_hat} n'={row.control.n_prime:g}  "
                f"k_hat={row.target.n_hat} k'={row.target.n_prime:g}"
            )
        lines.append(f"s={p.s:g} dressed basis amplitudes (index, re, im):")
        for x in (0, 1):
            for y in (0, 1):
                state = two_qubit_state(x, y, space, p, choice)
                triples = ", ".join(
                    f"({i}, {re:.12g}, {im:.12g})" for i, re, im in state.nonzero_triples()
                )
                lines.append(f"  |{x}{y}>  {triples}")
    for r in report.norm_ratio:
        lines.append(
            f"s={r.s:g} psi={r.psi:g} beta={r.beta:g}: measured={r.measured:.12g} "
            f"product={r.prediction_product:.12g} sqrt={r.prediction_sqrt:.12g} "
            f"-> {r.matched_law}"
        )
    return lines


def _run_report(args, layers, listing) -> int:
    """Sweep ``layers``, write the report to ``--out`` if given, and print the lines
    ``listing(report)`` gives; a sweep with no ``--out`` prints its report instead.
    The listing is called before anything is written: the state lines, which can
    raise, are built there, so an exit 2 writes nothing; the row lines, which
    cannot, are formatted one at a time as they are printed."""
    report = run_sweep(_config_from_args(args), layers)
    if args.command == "sweep" and not args.out:
        sys.stdout.write(serialize(report).decode("utf-8"))
    else:
        lines = listing(report)
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(serialize(report))
        for line in lines:
            print(line)
    return 1 if report.unexpected_failures() else 0


def _cmd_infer(args) -> int:
    config = _config_from_args(args)
    status = 0
    for p, choice in config.grid():
        psi, beta = choice.psi1, choice.beta1
        if args.ratio is not None:
            ratio = args.ratio
        else:
            ratio = norm_ratio_experiment(p, psi, beta).measured
        inference = infer_psi_from_norm(ratio, beta, p, n_hat=args.n_hat, law=args.law)
        print(
            f"s={p.s:g} ratio={ratio:.12g} -> psi={inference.inferred_psi:.12g} "
            f"(true {psi:.12g}), occupation encoding n'={inference.classified_n_prime} "
            f"at n_hat={inference.n_hat}, log-distance {inference.log_distance:.3e}, "
            f"law={inference.law}"
        )
        tol = config.tolerance * max(1.0, psi)
        if args.ratio is None and abs(inference.inferred_psi - psi) > tol:
            status = 1
    return status


_COMMANDS = {
    "audit": lambda args: _run_report(args, (ALGEBRA_LAYER,), _entry_lines),
    "gates": lambda args: _run_report(args, (GATE_LAYER,), _entry_lines),
    "states": lambda args: _run_report(args, (NORM_RATIO_LAYER,), _state_lines),
    "infer": _cmd_infer,
    "sweep": lambda args: _run_report(args, SWEEP_LAYERS, _entry_lines),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run :func:`main` on ``sys.argv`` and exit the process with its code.

    By now numpy and the package are imported: ``gc.freeze()`` moves the
    objects they leave tracked (~21,000 with numpy 2.4) to the permanent
    generation, so the collections at interpreter exit no longer walk them.
    The normal exit path stays (``atexit`` handlers, flushing stdout and
    stderr).  The freeze lasts for the process, so only this entry point
    makes it; a library import or an in-process ``main`` call leaves the
    heap alone.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
