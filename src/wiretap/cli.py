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
import os
import sys

from .channels import ensemble_to_json, channel_to_json
from .codesim import run_experiment
from .measures import _tripartite_split, dense_coding_advantage, entanglement_of_purification
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
    _read_json,
    load_state,
)
from .rates import RateReport, theorem1_rate, trivial_rate, unassisted_rate
from .scenario import build_gallery, load_scenario, save_scenario

__all__ = ["main"]


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": message, "type": kind}), file=sys.stderr)


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


def _seeded_config(args, what: str, known: set[str]) -> dict:
    """The ``--config`` file's JSON object ({} without one), with only
    ``known`` keys and ``--seed`` in place of its seed; a seed is required."""
    obj = _read_json(args.config) if args.config else {}
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} config must be a JSON object")
    unknown = set(obj) - known
    if unknown:
        raise ValidationError(f"unknown {what} config keys: {sorted(unknown)}")
    cfg = dict(obj)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if cfg.get("seed") is None:
        raise ValidationError(
            "a seed is required (pass --seed or put \"seed\" in the config file); "
            "there is no wall-clock seeding"
        )
    return cfg


def _optimizer_config(args) -> OptimizerConfig:
    known = {"seed", "num_labels_max", "restarts", "max_iters"}
    return OptimizerConfig(**_seeded_config(args, "optimizer", known))


def opt_result_to_json(result: OptResult) -> dict:
    payload: dict = {
        "best_value": result.best_value,
        "meaning": "best-found lower bound, one channel use (n=1); not a capacity",
    }
    if result.best_ensemble is not None:
        payload["witness_ensemble"] = ensemble_to_json(result.best_ensemble)
    if result.best_channel is not None:
        payload["witness_channel"] = channel_to_json(result.best_channel)
    if result.report is not None:
        payload["report"] = report_to_json(result.report)
    payload["trace"] = [[p.restart, p.iteration, p.value] for p in result.trace]
    return payload


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_rate_eval(args) -> int:
    sc = load_scenario(args.scenario)
    # The unassisted rate never reads the resource, so only the assisted
    # modes decompose it.
    if args.mode == "theorem1":
        if sc.ensemble is None:
            raise ValidationError("theorem1 mode needs an ensemble in the scenario")
        rep = theorem1_rate(sc.ensemble, sc.channel, sc.resource_state())
    elif args.mode == "trivial":
        if sc.modulations is None:
            raise ValidationError("trivial mode needs modulations in the scenario")
        rep = trivial_rate(
            sc.modulation_distribution(), sc.modulations, sc.channel, sc.resource_state()
        )
    else:
        if sc.ensemble is None:
            raise ValidationError("unassisted mode needs an ensemble in the scenario")
        rep = unassisted_rate(sc.ensemble, sc.channel)
    obj = report_to_json(rep)
    if args.format == "table":
        print(_format_table([obj]))
    else:
        print(json.dumps(obj))
    print(rep.summary(), file=sys.stderr)
    return 0


def cmd_rate_optimize(args) -> int:
    sc = load_scenario(args.scenario)
    cfg = _optimizer_config(args)
    try:
        if args.mode == "unassisted":
            result = optimize_unassisted(sc.channel, cfg)
        else:
            result = optimize_theorem1(sc.channel, sc.resource_state(), cfg)
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
    cfg = _optimizer_config(args)
    zeta_ab, rho_cb, s_b = _tripartite_split(state)
    delta = dense_coding_advantage(zeta_ab, args.dim_a_cap, cfg)
    ep = entanglement_of_purification(rho_cb, args.dim_f_cap, cfg)
    payload = {
        "delta": delta.best_value,
        "e_p": ep.best_value,
        "s_bprime": s_b,
        "residual": abs(delta.best_value + ep.best_value - s_b),
        "witnesses": {
            "delta": channel_to_json(delta.best_channel),
            "e_p": channel_to_json(ep.best_channel),
        },
    }
    print(json.dumps(payload))
    print(
        f"delta={delta.best_value:.6f} e_p={ep.best_value:.6f} s_bprime={s_b:.6f} "
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


def cmd_code_sim(args) -> int:
    sc = load_scenario(args.scenario)
    cfg = _seeded_config(args, "code-sim", {"n", "epsilon", "trials", "seed", "rate"})
    n_list = cfg.get("n", [1])
    epsilon = cfg.get("epsilon", 0.1)
    trials = cfg.get("trials", 10)
    reports = run_experiment(sc, n_list, epsilon, trials, cfg["seed"], rate=cfg.get("rate"))
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
    pmf = _read_json(args.pmf) if args.pmf is not None else None
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
    p.add_argument("--dim-a-cap", type=int, help="delta's channel output dim (default dim(A)^2)")
    p.add_argument("--dim-f-cap", type=int, help="E_P's dim(F) (default rank of the CB marginal)")
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
