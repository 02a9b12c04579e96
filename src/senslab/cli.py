"""Command-line interface.

Subcommands: ``sensitivity`` (one Monte Carlo sensitivity report),
``scaling`` (a log-log sweep), ``verify`` (the inequality-checker table,
nonzero exit on any failure), and ``bernoulli`` (binary-data sensitivity,
exact or Monte Carlo). Flags can be preloaded from a plain-text config file
of key=value lines; explicit flags override the file.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bernoulli import BernoulliModel, bernoulli_expected_sensitivity
from .core import CorruptionBudget, GaussianModel
from .estimators import build_estimator
from .harness import (
    SCHEMA,
    SensitivityReport,
    UnboundedSensitivityError,
    all_pass,
    estimate_es,
    format_verify_table,
    scaling_sweep,
    verify_suite,
)


def _parse_float_list(raw: str) -> list[float]:
    return [float(v) for v in raw.split(",") if v.strip()]


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _merge(args: argparse.Namespace, defaults: dict, converters: dict) -> dict:
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        for key, raw in _read_config(config_path).items():
            if key not in defaults:
                raise SystemExit(f"unknown config key {key!r}")
            merged[key] = converters[key](raw)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


_SENS_DEFAULTS = {
    "estimator": "mean", "adversary": "resample", "n": 1000, "d": 1,
    "eta": 0.1, "q": 2, "trials": 10_000, "seed": 0, "mu": [0.0],
    "delta": None, "workers": 1, "out": None, "csv": None,
}
_SENS_CONVERTERS = {
    "estimator": str, "adversary": str, "n": int, "d": int, "eta": float,
    "q": int, "trials": int, "seed": int, "mu": _parse_float_list,
    "delta": float, "workers": int, "out": str, "csv": str,
}


def _add_sensitivity_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--estimator", help="estimator registry name")
    p.add_argument("--adversary", help="adversary registry name")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--q", type=int, choices=(1, 2))
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--mu", type=float, nargs="+", help="mean vector (broadcast if single)")
    p.add_argument("--delta", type=float, help="shift size for local-shift")
    p.add_argument("--workers", type=int, help="thread count (does not change results)")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--csv", help="write a fixed-column CSV row here")


def _build_model_and_estimator(cfg: dict):
    d = cfg["d"]
    mu = cfg["mu"]
    if len(mu) == 1 and d > 1:
        mu = mu * d
    if len(mu) != d:
        raise SystemExit(f"--mu has {len(mu)} entries but --d is {d}")
    if cfg["estimator"].startswith("projected:"):
        # The projection lifts scalar samples into R^d internally; the clean
        # data itself is scalar.
        est = build_estimator(cfg["estimator"], d=d, seed=cfg["seed"])
        return est, GaussianModel(np.array([mu[0]]))
    return cfg["estimator"], GaussianModel(np.array(mu))


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    cfg = _merge(args, _SENS_DEFAULTS, _SENS_CONVERTERS)
    estimator, model = _build_model_and_estimator(cfg)
    try:
        report = estimate_es(
            estimator, cfg["adversary"], model,
            eta=cfg["eta"], n=cfg["n"], q=cfg["q"], trials=cfg["trials"],
            seed=cfg["seed"], delta=cfg["delta"], workers=cfg["workers"],
        )
    except UnboundedSensitivityError as err:
        print(json.dumps(err.to_json_dict(), indent=2, sort_keys=True))
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    text = report.to_json()
    print(text)
    _write(cfg["out"], text)
    if cfg["csv"]:
        _write(cfg["csv"], SensitivityReport.csv_header() + "\n" + report.csv_row())
    return 0


_SCALING_DEFAULTS = {
    **{k: v for k, v in _SENS_DEFAULTS.items() if k not in ("csv", "mu")},
    "sweep": "eta", "values": None, "mu": [0.0],
}
_SCALING_CONVERTERS = {
    **{k: v for k, v in _SENS_CONVERTERS.items() if k != "csv"},
    "sweep": str, "values": _parse_float_list,
}


def _cmd_scaling(args: argparse.Namespace) -> int:
    cfg = _merge(args, _SCALING_DEFAULTS, _SCALING_CONVERTERS)
    if not cfg["values"]:
        print("error: --values is required", file=sys.stderr)
        return 2
    try:
        fit = scaling_sweep(
            cfg["estimator"], cfg["adversary"],
            variable=cfg["sweep"], values=cfg["values"],
            eta=cfg["eta"], n=cfg["n"], d=cfg["d"], mu=cfg["mu"][0],
            q=cfg["q"], trials=cfg["trials"], seed=cfg["seed"],
            delta=cfg["delta"], workers=cfg["workers"],
        )
    except (ValueError, UnboundedSensitivityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    text = fit.to_json()
    print(text)
    _write(cfg["out"], text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    rows = verify_suite(trials_scale=args.trials_scale, seed=args.seed)
    print(format_verify_table(rows))
    ok = all_pass(rows)
    print(f"{'all checks passed' if ok else 'FAILURES PRESENT'} "
          f"({sum(r.result.holds for r in rows)}/{len(rows)})")
    return 0 if ok else 1


_BERN_DEFAULTS = {
    "n": 12, "eta": 0.1, "p": 0.5, "estimator": "bernoulli-plugin",
    "mode": "exact", "q": 1, "trials": 10_000, "seed": 0, "out": None,
}
_BERN_CONVERTERS = {
    "n": int, "eta": float, "p": float, "estimator": str, "mode": str,
    "q": int, "trials": int, "seed": int, "out": str,
}


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    cfg = _merge(args, _BERN_DEFAULTS, _BERN_CONVERTERS)
    try:
        if cfg["mode"] == "exact":
            est = build_estimator(cfg["estimator"])
            budget = CorruptionBudget.from_eta(cfg["eta"], cfg["n"])
            value = bernoulli_expected_sensitivity(est, cfg["n"], cfg["p"], budget)
            text = json.dumps({
                "schema": SCHEMA,
                "kind": "bernoulli-exact",
                "estimator": est.name,
                "n": cfg["n"],
                "eta": cfg["eta"],
                "k": budget.k,
                "p": cfg["p"],
                "expected_sensitivity": value,
            }, indent=2, sort_keys=True)
        else:
            report = estimate_es(
                cfg["estimator"], "hamming-ball", BernoulliModel(cfg["p"]),
                eta=cfg["eta"], n=cfg["n"], q=cfg["q"],
                trials=cfg["trials"], seed=cfg["seed"],
            )
            text = report.to_json()
    except (ValueError, UnboundedSensitivityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(text)
    _write(cfg["out"], text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="senslab",
        description="Measure how far estimators move when an adversary "
                    "replaces a bounded fraction of the sample.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sens = sub.add_parser("sensitivity", help="one Monte Carlo sensitivity report")
    _add_sensitivity_flags(p_sens)
    p_sens.set_defaults(func=_cmd_sensitivity)

    p_scale = sub.add_parser("scaling", help="sweep eta, n, or d and fit a log-log slope")
    _add_sensitivity_flags(p_scale)
    p_scale.add_argument("--sweep", choices=("eta", "n", "d"))
    p_scale.add_argument("--values", type=_parse_float_list, help="comma-separated grid")
    p_scale.set_defaults(func=_cmd_scaling)

    p_verify = sub.add_parser("verify", help="run the inequality-checker table")
    p_verify.add_argument("--trials-scale", type=int, default=100_000, dest="trials_scale")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_bern = sub.add_parser("bernoulli", help="binary-data sensitivity, exact or MC")
    p_bern.add_argument("--config", help="key=value config file; flags override it")
    p_bern.add_argument("--n", type=int)
    p_bern.add_argument("--eta", type=float)
    p_bern.add_argument("--p", type=float)
    p_bern.add_argument("--estimator")
    p_bern.add_argument("--mode", choices=("exact", "mc"))
    p_bern.add_argument("--q", type=int, choices=(1, 2))
    p_bern.add_argument("--trials", type=int)
    p_bern.add_argument("--seed", type=int)
    p_bern.add_argument("--out")
    p_bern.set_defaults(func=_cmd_bernoulli)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
