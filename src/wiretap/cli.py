"""Command-line entry point.

One binary, five subcommands: rate-eval, rate-optimize, resource-analyze,
code-sim and gallery.  All numerics live in the library; this module only
parses files and formats output.  Randomized commands require an explicit
seed (flag or config file); there is no wall-clock seeding.

Exit codes: 0 success, 2 validation or parse error, 3 resource-limit refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .channels import ensemble_to_json, channel_to_json
from .codesim import run_experiment
from .measures import dense_coding_advantage, entanglement_of_purification
from .entropic import von_neumann_entropy
from .optimize import (
    OptimizationError,
    OptimizerConfig,
    OptResult,
    optimize_theorem1,
    optimize_unassisted,
)
from .qcore import (
    ResourceLimitError,
    ValidationError,
    load_state,
    partial_trace,
    permute_factors,
)
from .rates import RateReport, theorem1_rate, trivial_rate, unassisted_rate
from .scenario import Scenario, build_gallery, save_scenario

__all__ = ["main"]


def _emit_error(kind: str, message: str, byte_offset: int | None = None) -> None:
    payload = {"error": message, "type": kind}
    if byte_offset is not None:
        payload["byte_offset"] = byte_offset
    print(json.dumps(payload), file=sys.stderr)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _load_scenario(path) -> Scenario:
    obj = _load_json(path)
    try:
        from .scenario import scenario_from_json

        return scenario_from_json(obj)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def report_to_json(rep: RateReport) -> dict:
    return {
        "mode": rep.mode,
        "rate": rep.rate,
        "i_u_bb": rep.i_u_bb,
        "i_u_ee": rep.i_u_ee,
        "i_u_aprime": rep.i_u_aprime,
        "constraint_residual": rep.constraint_residual,
        "feasible": rep.feasible,
        "note": "operational rate is max(0, rate)",
    }


def _format_table(rows: list[dict]) -> str:
    if not rows:
        return ""
    keys = list(rows[0])
    widths = {k: max(len(k), *(len(_cell(r[k])) for r in rows)) for k in keys}
    out = ["  ".join(k.ljust(widths[k]) for k in keys)]
    for r in rows:
        out.append("  ".join(_cell(r[k]).ljust(widths[k]) for k in keys))
    return "\n".join(out)


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def optimizer_config_from_json(obj, seed_override: int | None) -> OptimizerConfig:
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise ValidationError("optimizer config must be a JSON object")
    known = {"seed", "num_labels_max", "restarts", "max_iters"}
    unknown = set(obj) - known
    if unknown:
        raise ValidationError(f"unknown optimizer config keys: {sorted(unknown)}")
    kwargs = dict(obj)
    if seed_override is not None:
        kwargs["seed"] = seed_override
    if "seed" not in kwargs:
        raise ValidationError(
            "a seed is required (pass --seed or put \"seed\" in the config file); "
            "there is no wall-clock seeding"
        )
    return OptimizerConfig(**kwargs)


def opt_result_to_json(result: OptResult) -> dict:
    payload: dict = {
        "best_value": result.best_value,
        "meaning": "best-found lower bound, one channel use (n=1); not a capacity",
    }
    if result.best_ensemble is not None:
        payload["witness_ensemble"] = ensemble_to_json(result.best_ensemble)
    if result.best_channel is not None:
        payload["witness_channel"] = channel_to_json(result.best_channel)
    if isinstance(result.report, RateReport):
        payload["report"] = report_to_json(result.report)
    elif result.report is not None:
        payload["report"] = result.report
    payload["trace"] = [
        [p.restart, p.iteration, p.value, p.residual] for p in result.trace
    ]
    return payload


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_rate_eval(args) -> int:
    sc = _load_scenario(args.scenario)
    res = sc.resource_state()
    if args.mode == "theorem1":
        if sc.ensemble is None:
            raise ValidationError("theorem1 mode needs an ensemble in the scenario")
        rep = theorem1_rate(sc.ensemble, sc.channel, res)
    elif args.mode == "trivial":
        if sc.modulations is None:
            raise ValidationError("trivial mode needs modulations in the scenario")
        rep = trivial_rate(sc.modulation_distribution(), sc.modulations, sc.channel, res)
    else:
        if sc.ensemble is None:
            raise ValidationError("unassisted mode needs an ensemble in the scenario")
        ens = sc.ensemble
        if ens.space.dims != sc.channel.input_space.dims:
            extra = [
                lab
                for lab in ens.space.labels
                if lab not in set(sc.channel.input_space.labels)
            ]
            if any(ens.space.dim_of(lab) != 1 for lab in extra):
                raise ValidationError(
                    "unassisted mode needs ensemble members on the channel input "
                    "(extra factors must be one-dimensional)"
                )
            from .channels import CqEnsemble

            keep = [lab for lab in ens.space.labels if lab not in set(extra)]
            ens = CqEnsemble(
                ens.labels, ens.probs, [partial_trace(s, set(keep)) for s in ens.states]
            )
        rep = unassisted_rate(ens, sc.channel)
    obj = report_to_json(rep)
    if args.format == "table":
        print(_format_table([obj]))
    else:
        print(json.dumps(obj))
    print(rep.summary(), file=sys.stderr)
    return 0


def cmd_rate_optimize(args) -> int:
    sc = _load_scenario(args.scenario)
    cfg_obj = _load_json(args.config) if args.config else None
    cfg = optimizer_config_from_json(cfg_obj, args.seed)
    res = sc.resource_state()
    try:
        if args.mode == "unassisted":
            result = optimize_unassisted(sc.channel, cfg)
        elif args.mode == "theorem1":
            result = optimize_theorem1(sc.channel, res, cfg)
        else:
            raise ValidationError("rate-optimize supports modes theorem1 and unassisted")
    except OptimizationError as exc:
        raise ValidationError(str(exc)) from exc
    payload = opt_result_to_json(result)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "optresult.json")
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
    if result.best_ensemble is not None:
        with open(os.path.join(args.out, "witness_ensemble.json"), "w") as fh:
            json.dump(ensemble_to_json(result.best_ensemble), fh)
    print(json.dumps({k: v for k, v in payload.items() if k != "trace"}))
    print(
        f"best_value={result.best_value:.6f} written to {out_path}",
        file=sys.stderr,
    )
    return 0


def cmd_resource_analyze(args) -> int:
    state = load_state(args.state)
    if len(state.space.factors) != 3:
        raise ValidationError("resource-analyze expects a tripartite state file")
    cfg_obj = _load_json(args.config) if args.config else None
    cfg = optimizer_config_from_json(cfg_obj, args.seed)
    a, b, c = state.space.labels
    zeta_ab = partial_trace(state, {a, b})
    delta = dense_coding_advantage(zeta_ab, args.dim_a_cap, cfg)
    rho_cb = permute_factors(partial_trace(state, {c, b}), [c, b])
    ep = entanglement_of_purification(rho_cb, args.dim_f_cap, cfg)
    s_b = von_neumann_entropy(partial_trace(state, {b}))
    payload = {
        "delta": delta.value,
        "e_p": ep.value,
        "s_bprime": s_b,
        "residual": abs(delta.value + ep.value - s_b),
        "witnesses": {
            "delta": channel_to_json(delta.witness_channel),
            "e_p": channel_to_json(ep.witness_channel),
        },
    }
    print(json.dumps(payload))
    print(
        f"delta={delta.value:.6f} e_p={ep.value:.6f} s_bprime={s_b:.6f} "
        f"duality_residual={payload['residual']:.3e}",
        file=sys.stderr,
    )
    return 0


SIM_CSV_COLUMNS = [
    "n",
    "M",
    "S",
    "rate",
    "lambda_hat",
    "mu_hat",
    "marginal_residual",
    "fixup_cost",
    "ci",
]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def cmd_code_sim(args) -> int:
    sc = _load_scenario(args.scenario)
    cfg = _load_json(args.config) if args.config else {}
    if not isinstance(cfg, dict):
        raise ValidationError("code-sim config must be a JSON object")
    unknown = set(cfg) - {"n", "epsilon", "trials", "seed", "rate"}
    if unknown:
        raise ValidationError(f"unknown code-sim config keys: {sorted(unknown)}")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ValidationError(
            "a seed is required (pass --seed or put \"seed\" in the config file)"
        )
    n_list = cfg.get("n", [1])
    epsilon = cfg.get("epsilon", 0.1)
    trials = cfg.get("trials", 10)
    rate = cfg.get("rate")
    if not (isinstance(n_list, list) and n_list and all(_is_int(n) and n >= 1 for n in n_list)):
        raise ValidationError(f"n must be a non-empty list of integers >= 1, got {n_list!r}")
    if not (_is_int(trials) and trials >= 1):
        raise ValidationError(f"trials must be an integer >= 1, got {trials!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    if not _is_number(epsilon) or not (rate is None or _is_number(rate)):
        raise ValidationError(f"epsilon and rate must be finite numbers, got {epsilon!r}, {rate!r}")
    reports = run_experiment(sc, n_list, epsilon, trials, seed, rate=rate)
    rows = [
        {
            "n": r.n,
            "M": r.M,
            "S": r.S,
            "rate": r.rate,
            "lambda_hat": r.lambda_hat,
            "mu_hat": r.mu_hat,
            "marginal_residual": r.marginal_residual,
            "fixup_cost": r.fixup_cost,
            "ci": r.ci_halfwidth,
        }
        for r in reports
    ]
    if args.format == "json":
        print(json.dumps(rows))
    elif args.format == "table":
        print(_format_table(rows))
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=SIM_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        print(buf.getvalue(), end="")
    os.makedirs(args.out, exist_ok=True)
    trials_path = os.path.join(args.out, "codesim_trials.json")
    with open(trials_path, "w") as fh:
        json.dump(
            [
                {
                    "n": r.n,
                    "lambda_trials": list(r.lambda_trials),
                    "mu_trials": list(r.mu_trials),
                }
                for r in reports
            ],
            fh,
        )
    print(f"per-trial data written to {trials_path}", file=sys.stderr)
    return 0


def cmd_gallery(args) -> int:
    pmf = None
    if args.pmf is not None:
        pmf = np.asarray(_load_json(args.pmf), dtype=float)
    sc = build_gallery(args.name, pmf)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{sc.name}.json")
    save_scenario(sc, path)
    print(path)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiretap",
        description="Rates, resource measures and coding experiments for "
        "correlation-assisted wiretap channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate-eval", help="evaluate a rate functional on a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", choices=["theorem1", "trivial", "unassisted"], default="theorem1")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=cmd_rate_eval)

    p = sub.add_parser("rate-optimize", help="search for a rate-maximizing ensemble")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", choices=["theorem1", "unassisted"], default="theorem1")
    p.add_argument("--config", help="OptimizerConfig JSON file")
    p.add_argument("--seed", type=int, help="overrides the config seed")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_rate_optimize)

    p = sub.add_parser("resource-analyze", help="dense coding advantage and E_P of a state")
    p.add_argument("--state", required=True, help="tripartite state JSON file")
    p.add_argument("--config", help="OptimizerConfig JSON file")
    p.add_argument("--seed", type=int)
    p.add_argument("--dim-a-cap", type=int, default=None)
    p.add_argument("--dim-f-cap", type=int, default=None)
    p.set_defaults(func=cmd_resource_analyze)

    p = sub.add_parser("code-sim", help="finite-blocklength random-code experiment")
    p.add_argument("--scenario", required=True)
    p.add_argument("--config", help='JSON {"n": [...], "epsilon": .., "trials": .., "seed": .., "rate": ..}')
    p.add_argument("--seed", type=int, help="overrides the config seed")
    p.add_argument("--out", default=".")
    p.add_argument("--format", choices=["csv", "json", "table"], default="csv")
    p.set_defaults(func=cmd_code_sim)

    p = sub.add_parser("gallery", help="write a bundled scenario to disk")
    p.add_argument("name")
    p.add_argument("--pmf", help="JSON 3-way pmf array (classical gallery only)")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_gallery)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        _emit_error("validation", str(exc))
        return 2
    except ResourceLimitError as exc:
        _emit_error("resource-limit", str(exc))
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
