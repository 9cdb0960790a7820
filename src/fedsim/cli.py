"""Command-line entry points.

Subcommands: `run` (experiment sweep), `diag` (property suites),
`summarize` (rebuild the benchmark summary from round logs), and
`nemenyi` (rank statistics over a sweep root).

Exit codes: 0 ok, 2 config error, 3 diverged, 4 diagnostic failure.
The FEDSIM_OUT_ROOT environment variable relocates all outputs.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import diag as dg
from . import eval as ev
from . import runner
from .data import DataError
from .protocol import ProtocolError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_DIAG_FAIL = 4

_OVERRIDE_KEYS = [f.name for f in dataclasses.fields(runner.ExperimentConfig)]

# `fedsim diag`'s suites, each run on the parsed arguments and the comm-audit cases;
# the parser offers exactly these names
DIAG_SUITES = {
    "grad-check": lambda args, cases: dg.grad_check_report(),
    "quadratic-oracle": lambda args, cases: dg.quadratic_oracle_report(lambda_g=args.lambda_g),
    "comm-audit": lambda args, cases: dg.comm_audit_report(cases=cases),
}


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    for key in _OVERRIDE_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)


def _cmd_run(args) -> int:
    try:
        overrides = {k: getattr(args, k) for k in _OVERRIDE_KEYS}
        config = runner.load_config(args.config, overrides)
    except runner.ConfigError as err:
        print(err, file=sys.stderr)
        return EXIT_CONFIG
    try:
        results = runner.run(config)
    except (DataError, ProtocolError) as err:
        print(f"run failed: {err}", file=sys.stderr)
        return EXIT_CONFIG
    for r in results:
        flag = " DIVERGED at round {}, client {}".format(*r.diverged_at) if r.diverged else ""
        print(f"{r.algo} scenario={r.scenario_seed} train={r.training_seed} "
              f"best_acc={r.best_acc:.4f} final_acc={r.final_acc:.4f}{flag} -> {r.run_dir}")
    if any(r.diverged for r in results):
        print("at least one run diverged (non-finite loss)", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_diag(args) -> int:
    cases = None  # the built-in comm-audit cases
    if args.M is not None:
        cases = [(args.M, args.C or 10, args.embed_dim or 512)]
    elif args.C is not None or args.embed_dim is not None:
        args.error("--C and --embed-dim need --M: they size its comm-audit case")
    if not math.isfinite(args.lambda_g):
        args.error(f"argument --lambda-g: must be a finite number, got {args.lambda_g}")
    report = DIAG_SUITES[args.suite](args, cases)
    print(dg.format_report(args.suite, report))
    return EXIT_OK if report["passed"] else EXIT_DIAG_FAIL


def _cmd_summarize(args) -> int:
    by_algo = runner.scan_results(args.root)
    if not by_algo:
        print(f"no run directories under {args.root}", file=sys.stderr)
        return EXIT_CONFIG
    scenarios = runner.results_to_scenarios(by_algo)
    out = Path(args.out or Path(args.root) / "summary.csv")
    ev.write_summary_csv(out, scenarios)
    for row in ev.summarize(scenarios):
        print(f"{row['algorithm']:<10} mean_acc={row['mean_acc']:.4f} "
              f"std={row['std_acc']:.4f} over {row['num_scenarios']} scenarios")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_nemenyi(args) -> int:
    ranks, dropped = ev.rank_matrix(runner.results_to_scenarios(runner.scan_results(args.root)))
    if dropped:
        print(f"left out, not run by every algorithm: {' '.join(dropped)}", file=sys.stderr)
    if ranks.num_algorithms < 2 or ranks.num_scenarios < 2:
        print("need at least 2 algorithms and 2 scenarios that all of them ran", file=sys.stderr)
        return EXIT_CONFIG
    chi2, significant = ev.friedman_statistic(ranks, args.alpha)
    _, avg, cd = ev.nemenyi_pairwise(ranks, args.alpha)
    print(f"friedman chi2={chi2:.6f} significant={significant} "
          f"(alpha={args.alpha}, N={ranks.num_scenarios}, k={ranks.num_algorithms})")
    print(f"critical distance={cd:.6f}")
    for name, rank in zip(ranks.algorithms, avg):
        print(f"  {name:<10} avg rank {rank:.3f}")
    out = Path(args.out or Path(args.root) / "nemenyi.csv")
    ev.write_nemenyi_csv(out, ranks, args.alpha)
    print(f"wrote {out}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep")
    p_run.add_argument("--config", default=None, help="INI config file")
    _add_override_flags(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_diag = sub.add_parser("diag", help="run a diagnostic property suite")
    p_diag.add_argument("suite", choices=list(DIAG_SUITES))
    p_diag.add_argument("--lambda-g", dest="lambda_g", type=float, default=0.5)
    p_diag.add_argument("--M", type=_positive_int, default=None, help="model size for comm-audit")
    p_diag.add_argument("--C", type=_positive_int, default=None,
                        help="classes for comm-audit (with --M; default 10)")
    p_diag.add_argument("--embed-dim", dest="embed_dim", type=_positive_int, default=None,
                        help="embedding width for comm-audit (with --M; default 512)")
    p_diag.set_defaults(fn=_cmd_diag, error=p_diag.error)

    p_sum = sub.add_parser("summarize", help="aggregate round logs into a summary CSV")
    p_sum.add_argument("root", help="directory holding run subdirectories")
    p_sum.add_argument("--out", default=None)
    p_sum.set_defaults(fn=_cmd_summarize)

    p_nem = sub.add_parser("nemenyi", help="rank statistics over a sweep root")
    p_nem.add_argument("root", help="directory holding run subdirectories")
    p_nem.add_argument("--alpha", type=float, default=0.05, choices=sorted(ev.NEMENYI_Q))
    p_nem.add_argument("--out", default=None)
    p_nem.set_defaults(fn=_cmd_nemenyi)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
