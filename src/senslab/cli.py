"""Command-line interface.

Subcommands: ``sensitivity`` (one Monte Carlo sensitivity report),
``scaling`` (a log-log sweep), ``verify`` (the inequality-checker table,
nonzero exit on any failure), and ``bernoulli`` (binary-data sensitivity,
exact or Monte Carlo). Flags can be preloaded from a plain-text config file
of key=value lines; each line is parsed as the flag ``--key=value`` ahead of
the command line, so file values are checked like flags and explicit flags
override them.
"""

from __future__ import annotations

import argparse
import sys

from .bernoulli import BernoulliModel, bernoulli_expected_sensitivity
from .core import CorruptionBudget
from .estimators import build_estimator
from .harness import (
    SensitivityReport,
    UnboundedSensitivityError,
    _dump_json,
    _gaussian_point,
    _record,
    all_pass,
    estimate_es,
    format_verify_table,
    scaling_sweep,
    verify_suite,
)


def _float_list(raw: str) -> list[float]:
    return [float(v) for v in raw.split(",") if v.strip()]


class _FloatListAction(argparse.Action):
    """``--flag 1 2``, ``--flag 1,2`` and ``--flag=1,2`` give the same list."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs="+", type=_float_list, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, [v for token in values for v in token])


def _config_tokens(path: str, known: set[str]) -> list[str]:
    """Each ``key=value`` line of ``path`` as the one token ``--key=value``.

    One token, not two: ``--mu -1,-2`` would read ``-1,-2`` as an option.
    """
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in known:
                raise SystemExit(f"unknown config key {key!r}")
            tokens.append(f"--{key}={value.strip()}")
    return tokens


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--estimator", default="mean", help="estimator registry name")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--q", type=int, choices=(1, 2), default=2)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report here")


def _add_gaussian_flags(p: argparse.ArgumentParser) -> None:
    _add_shared_flags(p)
    p.add_argument("--adversary", default="resample", help="adversary registry name")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--mu", action=_FloatListAction, default=[0.0],
                   help="mean vector, space- or comma-separated (broadcast if single)")
    p.add_argument("--delta", type=float, help="shift size for local-shift")
    p.add_argument("--workers", type=int, default=None,
                   help="most threads the draws run on (default: the CPUs this process "
                        "may use); never changes results. These run on one thread: "
                        "tv-coupling (0.74-1.00x on two threads), hamming-ball (its step "
                        "evaluates the estimator) and trials of fewer than 2000 entries "
                        "n*d (0.78-0.98x at d = 1)")


def _cmd_sensitivity(args: argparse.Namespace) -> tuple[str, int]:
    estimator, model = _gaussian_point(args.estimator, args.d, args.mu, args.seed)
    report = estimate_es(
        estimator, args.adversary, model,
        eta=args.eta, n=args.n, q=args.q, trials=args.trials,
        seed=args.seed, delta=args.delta, workers=args.workers,
    )
    _write(args.csv, SensitivityReport.csv_header() + "\n" + report.csv_row())
    return report.to_json(), 0


def _cmd_scaling(args: argparse.Namespace) -> tuple[str, int]:
    if not args.values:
        raise ValueError("--values is required")
    return scaling_sweep(
        args.estimator, args.adversary,
        variable=args.sweep, values=args.values,
        eta=args.eta, n=args.n, d=args.d, mu=args.mu,
        q=args.q, trials=args.trials, seed=args.seed,
        delta=args.delta, workers=args.workers,
    ).to_json(), 0


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    rows = verify_suite(trials_scale=args.trials_scale, seed=args.seed)
    ok = all_pass(rows)
    summary = (f"{'all checks passed' if ok else 'FAILURES PRESENT'} "
               f"({sum(r.result.holds for r in rows)}/{len(rows)})")
    return format_verify_table(rows) + "\n" + summary, 0 if ok else 1


def _cmd_bernoulli(args: argparse.Namespace) -> tuple[str, int]:
    if args.mode == "mc":
        return estimate_es(
            args.estimator, "hamming-ball", BernoulliModel(args.p),
            eta=args.eta, n=args.n, q=args.q, trials=args.trials, seed=args.seed,
        ).to_json(), 0
    if args.q != 1:
        raise ValueError(f"exact mode computes the q = 1 sensitivity only, got --q {args.q}")
    est = build_estimator(args.estimator)
    budget = CorruptionBudget.from_eta(args.eta, args.n)
    return _dump_json(_record(
        "bernoulli-exact",
        estimator=est.name,
        n=args.n,
        eta=args.eta,
        k=budget.k,
        p=args.p,
        expected_sensitivity=bernoulli_expected_sensitivity(est, args.n, args.p, budget),
    )), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="senslab",
        description="Measure how far estimators move when an adversary "
                    "replaces a bounded fraction of the sample.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sens = sub.add_parser("sensitivity", help="one Monte Carlo sensitivity report")
    _add_gaussian_flags(p_sens)
    p_sens.add_argument("--csv", help="write a fixed-column CSV row here")
    p_sens.set_defaults(func=_cmd_sensitivity)

    p_scale = sub.add_parser("scaling", help="sweep eta, n, or d and fit a log-log slope")
    _add_gaussian_flags(p_scale)
    p_scale.add_argument("--sweep", choices=("eta", "n", "d"), default="eta")
    p_scale.add_argument("--values", action=_FloatListAction,
                         help="the grid, space- or comma-separated")
    p_scale.set_defaults(func=_cmd_scaling)

    p_verify = sub.add_parser("verify", help="run the inequality-checker table")
    p_verify.add_argument("--trials-scale", type=int, default=100_000, dest="trials_scale")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify, config=None, out=None)

    p_bern = sub.add_parser("bernoulli", help="binary-data sensitivity, exact or MC")
    _add_shared_flags(p_bern)
    p_bern.add_argument("--p", type=float, default=0.5)
    p_bern.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p_bern.set_defaults(func=_cmd_bernoulli, n=12, estimator="bernoulli-plugin", q=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            tokens = _config_tokens(args.config, set(vars(args)) - {"command", "config", "func"})
        except (OSError, UnicodeDecodeError) as err:
            reason = getattr(err, "strerror", None) or err
            print(f"error: cannot read config file {args.config!r}: {reason}", file=sys.stderr)
            return 2
        args = parser.parse_args([argv[0], *tokens, *argv[1:]])
    try:
        text, code = args.func(args)
    except UnboundedSensitivityError as err:
        print(_dump_json(err.to_json_dict()))
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(text)
    _write(args.out, text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
