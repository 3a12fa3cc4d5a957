"""Command-line front end; each subcommand exercises one slice of the suite.

Exit status: 0 when every check expected to pass did pass, 1 on any
unexpected failure, 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .fockspace import FunctionChoice, FunctionFamily
from .qnumber import DeformationParam
from .qubits import (
    QUBIT_CUTOFF,
    TruncatedFockSpace,
    case2_consistency_table,
    norm_ratio_experiment,
    two_qubit_state,
)
from .report import (
    ALGEBRA_LAYER,
    ConfigError,
    DEFAULT_LAW,
    GATE_LAYER,
    LAW_PRODUCT,
    LAW_SQRT,
    NORM_RATIO_LAYER,
    SweepConfig,
    infer_psi_from_norm,
    run_sweep,
    serialize,
)

DEFAULT_S_GRID = (0.1, 0.5, 0.9)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdgates",
        description="deformed-oscillator algebra and gate-condition verification",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--s", type=float, help="single deformation strength in (0, 1]")
    common.add_argument("--s-grid", help="comma-separated strictly increasing strengths")
    common.add_argument("--cutoff", type=int, default=16, help="retained Fock levels (default 16)")
    common.add_argument("--psi", default="1", help="control dressing family: 1, q or q^<float>")
    common.add_argument("--beta", default="1", help="target dressing family: 1, q or q^<float>")
    common.add_argument("--tol", type=float, default=1e-10, help="pass/fail tolerance")
    common.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    common.add_argument("--out", help="write the serialized report to this path")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("audit", parents=[common], help="operator-identity checks")
    sub.add_parser("gates", parents=[common], help="gate conditions and truth tables")
    sub.add_parser("states", parents=[common], help="state bookkeeping tables and norm ratios")

    infer = sub.add_parser("infer", parents=[common], help="recover a dressing value from a norm ratio")
    infer.add_argument("--ratio", type=float, help="measured norm ratio (default: computed forward)")
    infer.add_argument("--n-hat", type=int, default=1, help="plain occupation for classification")
    infer.add_argument("--law", choices=(LAW_PRODUCT, LAW_SQRT), default=DEFAULT_LAW)

    sweep = sub.add_parser("sweep", parents=[common], help="every registered check")
    sweep.add_argument("--config", help="JSON config file; overrides the other flags")
    return parser


def _config_from_args(args) -> SweepConfig:
    if getattr(args, "config", None):
        with open(args.config, "rb") as fh:
            return SweepConfig.from_payload(json.load(fh))
    if args.s is not None and args.s_grid is not None:
        raise ConfigError(["give either --s or --s-grid, not both"])
    if args.s is not None:
        grid = (args.s,)
    elif args.s_grid is not None:
        try:
            grid = tuple(float(v) for v in args.s_grid.split(","))
        except ValueError:
            raise ConfigError([f"cannot parse --s-grid {args.s_grid!r}"]) from None
    else:
        grid = DEFAULT_S_GRID
    return SweepConfig(
        s_grid=grid,
        psi_family=FunctionFamily.parse(args.psi),
        beta_family=FunctionFamily.parse(args.beta),
        cutoff=args.cutoff,
        tolerance=args.tol,
        output_format=args.fmt,
    )


def _emit(report, args) -> None:
    blob = serialize(report)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    elif args.command == "sweep":
        sys.stdout.write(blob.decode("utf-8"))


def _print_entries(report) -> None:
    for e in report.entries:
        status = "PASS" if e.passed else "FAIL"
        line = f"{status} s={e.s:g} {e.check_id} residual={e.residual:.3e}"
        if e.note:
            line += f"  [{e.note}]"
        print(line)
    print(
        f"summary: {report.summary['total_pass']} pass, {report.summary['total_fail']} fail "
        f"({report.summary['unexpected_failures']} unexpected)"
    )


def _exit_code(report) -> int:
    return 1 if report.unexpected_failures() else 0


def _cmd_layer(args, layer: str) -> int:
    report = run_sweep(_config_from_args(args), layers=(layer,))
    _emit(report, args)
    _print_entries(report)
    return _exit_code(report)


def _cmd_states(args) -> int:
    # printed only once everything is built: an exit 2 writes nothing to stdout
    config = _config_from_args(args)
    space = TruncatedFockSpace(QUBIT_CUTOFF)
    lines = []
    for s in config.s_grid:
        p = DeformationParam(s)
        lines.append(f"s={s:g} deformed-occupation bookkeeping:")
        for row in case2_consistency_table(p):
            lines.append(
                f"  |{row.state_label}>  psi={row.psi_rule} beta={row.beta_rule}  "
                f"n_hat={row.control.n_hat} n'={row.control.n_prime:g}  "
                f"k_hat={row.target.n_hat} k'={row.target.n_prime:g}"
            )
        choice = FunctionChoice.from_families(config.psi_family, config.beta_family, p.q)
        lines.append(f"s={s:g} dressed basis amplitudes (index, re, im):")
        for x in (0, 1):
            for y in (0, 1):
                state = two_qubit_state(x, y, space, p, choice, choice)
                triples = ", ".join(
                    f"({i}, {re:.12g}, {im:.12g})" for i, re, im in state.nonzero_triples()
                )
                lines.append(f"  |{x}{y}>  {triples}")
    report = run_sweep(config, layers=(NORM_RATIO_LAYER,))
    for r in report.norm_ratio:
        lines.append(
            f"s={r.s:g} psi={r.psi:g} beta={r.beta:g}: measured={r.measured:.12g} "
            f"product={r.prediction_product:.12g} sqrt={r.prediction_sqrt:.12g} "
            f"-> {r.matched_law}"
        )
    _emit(report, args)
    print("\n".join(lines))
    return _exit_code(report)


def _cmd_infer(args) -> int:
    config = _config_from_args(args)
    status = 0
    for s in config.s_grid:
        p = DeformationParam(s)
        psi = config.psi_family.evaluate(p.q)
        beta = config.beta_family.evaluate(p.q)
        if args.ratio is not None:
            ratio = args.ratio
        else:
            ratio = norm_ratio_experiment(p, psi, beta).measured
        inference = infer_psi_from_norm(ratio, beta, p, n_hat=args.n_hat, law=args.law)
        print(
            f"s={s:g} ratio={ratio:.12g} -> psi={inference.inferred_psi:.12g} "
            f"(true {psi:.12g}), occupation encoding n'={inference.classified_n_prime} "
            f"at n_hat={inference.n_hat}, log-distance {inference.log_distance:.3e}, "
            f"law={inference.law}"
        )
        if args.ratio is None and abs(inference.inferred_psi - psi) > args.tol * max(1.0, psi):
            status = 1
    return status


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    report = run_sweep(config)
    _emit(report, args)
    if args.out:
        _print_entries(report)
    return _exit_code(report)


_COMMANDS = {
    "audit": lambda args: _cmd_layer(args, ALGEBRA_LAYER),
    "gates": lambda args: _cmd_layer(args, GATE_LAYER),
    "states": _cmd_states,
    "infer": _cmd_infer,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
