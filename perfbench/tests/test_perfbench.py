"""Tests of the benchmark itself: tiny smoke passes of every workload, and
for every correctness check a deliberately wrong output it must reject.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "rate-optimize-superdense": {"max_iters": 3},
    "resource-analyze-3qubit": {"states": 1, "restarts": 2, "max_iters": 3},
    "codesim-dense-n4": {"n": 2, "rate": 1.0},
    "codesim-diag-n10": {"n": (2, 4), "trials": 5},
}


@pytest.fixture(scope="module")
def runners(tmp_path_factory):
    """One in-process round of every workload at tiny size, by name."""
    found = {}
    for name, sizes in TINY.items():
        wl = WORKLOADS[name](7, str(tmp_path_factory.mktemp(name)), **sizes)
        runner = run.Runner(wl, wl.write_inputs())
        runner.one_round()
        found[name] = runner
    return found


@pytest.fixture(scope="module")
def outputs(runners):
    """Each workload and its parsed outputs, by name."""
    return {
        name: (r.wl, [json.loads(s.strip().splitlines()[-1]) for s in r.first_stdouts])
        for name, r in runners.items()
    }


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_every_workload_passes_its_checks(runners, name):
    runner = runners[name]
    assert runner.failed == 0
    assert runner.attempted == len(runner.calls)
    assert runner.problems == []


@pytest.mark.parametrize("name", sorted(TINY))
def test_a_round_that_differs_from_the_first_is_flagged(runners, name):
    runner = runners[name]
    first = list(runner.first_stdouts)
    runner.check(first)
    assert runner.problems == []
    runner.check([s + " " for s in first])
    assert any("deterministic" in p for p in runner.problems)
    runner.problems.clear()


# ---------------------------------------------------------------------------
# rate-optimize
# ---------------------------------------------------------------------------


def _rate_payload(outputs):
    return copy.deepcopy(outputs["rate-optimize-superdense"][1][0])


def test_rate_check_rejects_a_perturbed_best_value(outputs):
    p = _rate_payload(outputs)
    p["best_value"] += 1e-6
    assert any("blockwise rate" in m for m in checks.check_rate_optimize_superdense(p))


def test_rate_check_rejects_a_witness_with_a_shifted_marginal(outputs):
    p = _rate_payload(outputs)
    probs = np.asarray(p["witness_ensemble"]["probs"])
    probs[0] += 0.1
    p["witness_ensemble"]["probs"] = list(probs / probs.sum())
    bad = checks.check_rate_optimize_superdense(p)
    assert any("marginal residual" in m for m in bad) or any("blockwise" in m for m in bad)


def test_rate_check_rejects_a_non_positive_or_unnormalized_member(outputs):
    p = _rate_payload(outputs)
    heavy = int(np.argmax(p["witness_ensemble"]["probs"]))
    st = p["witness_ensemble"]["states"][heavy]
    st["matrix"] = (np.asarray(st["matrix"]) * 1.001).tolist()
    assert any("trace error" in m for m in checks.check_rate_optimize_superdense(p))
    p = _rate_payload(outputs)
    st = p["witness_ensemble"]["states"][heavy]
    m = checks.matrix_from_json(st["matrix"]) - 0.01 * np.eye(4)
    st["matrix"] = [[[z.real, z.imag] for z in row] for row in m.tolist()]
    assert any("positive semidefinite" in m for m in checks.check_rate_optimize_superdense(p))


def test_rate_check_rejects_a_light_member_far_off_its_trace(outputs):
    """The repair member's known trace error is allowed only up to
    REPAIR_WEIGHTED_TRACE_TOL once weighted by its prior."""
    p = _rate_payload(outputs)
    probs = p["witness_ensemble"]["probs"]
    light = int(np.argmin(probs))
    st = p["witness_ensemble"]["states"][light]
    scale = 1 + max(10 * checks.TRACE_TOL, 100 * checks.REPAIR_WEIGHTED_TRACE_TOL / probs[light])
    st["matrix"] = (np.asarray(st["matrix"]) * scale).tolist()
    assert any("trace error" in m for m in checks.check_rate_optimize_superdense(p))


def test_rate_check_rejects_priors_that_are_not_a_distribution(outputs):
    p = _rate_payload(outputs)
    p["witness_ensemble"]["probs"] = [2 * q for q in p["witness_ensemble"]["probs"]]
    assert any("not a distribution" in m for m in checks.check_rate_optimize_superdense(p))


def test_rate_check_rejects_a_value_below_the_dense_coding_rate():
    """A consistent witness of rate 0 (one Bell member) is still wrong here."""
    bell = np.zeros((4, 4))
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    member = {"factors": [["A", 2], ["App", 2]],
              "matrix": [[[z, 0.0] for z in row] for row in bell.tolist()]}
    p = {"best_value": 0.0,
         "witness_ensemble": {"labels": [0], "probs": [1.0], "states": [member]}}
    bad = checks.check_rate_optimize_superdense(p)
    assert bad and all("outside [2 - 1e-3" in m for m in bad)


# ---------------------------------------------------------------------------
# resource-analyze
# ---------------------------------------------------------------------------


def _resource(outputs):
    wl, payloads = outputs["resource-analyze-3qubit"]
    return wl.states[0], copy.deepcopy(payloads[0])


def test_resource_check_rejects_delta_and_ep_swapped(outputs):
    psi, p = _resource(outputs)
    assert abs(p["delta"] - p["e_p"]) > 1e-3
    p["delta"], p["e_p"] = p["e_p"], p["delta"]
    assert checks.check_resource_analyze(psi, p)


@pytest.mark.parametrize("key", ["delta", "e_p"])
def test_resource_check_rejects_a_value_off_its_witness(outputs, key):
    psi, p = _resource(outputs)
    p[key] += 1e-6
    assert any("at its witness channel" in m for m in checks.check_resource_analyze(psi, p))


def test_resource_check_rejects_a_broken_duality(outputs):
    psi, p = _resource(outputs)
    p["e_p"] += 0.05
    assert any("|delta + E_P - S(B)|" in m for m in checks.check_resource_analyze(psi, p))


def test_resource_check_rejects_values_outside_their_bounds(outputs):
    psi, p = _resource(outputs)
    p["delta"] = -1e-3
    assert any(m.startswith("delta") and "outside" in m
               for m in checks.check_resource_analyze(psi, p))
    psi, p = _resource(outputs)
    p["e_p"] = 1.5
    assert any(m.startswith("E_P") and "outside" in m
               for m in checks.check_resource_analyze(psi, p))


def test_resource_check_rejects_a_wrong_entropy_or_witness(outputs):
    psi, p = _resource(outputs)
    p["s_bprime"] += 1e-6
    assert any("s_bprime" in m for m in checks.check_resource_analyze(psi, p))
    psi, p = _resource(outputs)
    kraus = p["witnesses"]["delta"]["kraus"]
    kraus[0] = (np.asarray(kraus[0]) * 1.1).tolist()
    assert any("trace preserving" in m for m in checks.check_resource_analyze(psi, p))


def test_resource_check_rejects_a_witness_on_the_wrong_system(outputs):
    psi, p = _resource(outputs)
    p["witnesses"]["e_p"]["input"] = [["Epur", 3]]
    assert any("acts on dimension" in m for m in checks.check_resource_analyze(psi, p))


# ---------------------------------------------------------------------------
# code-sim, dense path
# ---------------------------------------------------------------------------


def _dense(outputs):
    wl, payloads = outputs["codesim-dense-n4"]
    return wl, copy.deepcopy(payloads[0]), copy.deepcopy(wl.trials())


def _dense_check(wl, rows, trials):
    return checks.check_codesim_superdense(rows, trials, wl.size["n"], wl.size["rate"],
                                           wl.size["epsilon"])


def test_dense_check_rejects_lambda_shifted_by_half_a_codeword(outputs):
    wl, rows, trials = _dense(outputs)
    shift = 1.0 / (2 * rows[0]["M"])
    rows[0]["lambda_hat"] += shift
    trials[0]["lambda_trials"] = [lam + shift for lam in trials[0]["lambda_trials"]]
    assert any("not an integer" in m for m in _dense_check(wl, rows, trials))


def test_dense_check_rejects_no_decoded_codeword(outputs):
    wl, rows, trials = _dense(outputs)
    rows[0]["lambda_hat"] = 1.0
    trials[0]["lambda_trials"] = [1.0]
    assert any("not an integer in [1" in m for m in _dense_check(wl, rows, trials))


@pytest.mark.parametrize("key", ["mu_hat", "marginal_residual", "fixup_cost"])
def test_dense_check_rejects_nonzero_leakage_or_repair(outputs, key):
    wl, rows, trials = _dense(outputs)
    rows[0][key] = 1e-6
    assert any(key in m for m in _dense_check(wl, rows, trials))


def test_dense_check_rejects_wrong_code_sizes(outputs):
    wl, rows, trials = _dense(outputs)
    rows[0]["M"] += 1
    assert any("closed form" in m for m in _dense_check(wl, rows, trials))


# ---------------------------------------------------------------------------
# code-sim, diagonal path
# ---------------------------------------------------------------------------


def _diag(outputs):
    wl, payloads = outputs["codesim-diag-n10"]
    return wl, copy.deepcopy(payloads[0]), copy.deepcopy(wl.trials())


def _diag_check(wl, rows, trials):
    return checks.check_codesim_classical(rows, trials, list(wl.size["n"]), wl.rate(),
                                          wl.size["epsilon"], wl.expectations)


def test_diag_check_rejects_wrong_code_sizes(outputs):
    wl, rows, trials = _diag(outputs)
    rows[1]["S"] -= 1
    assert any("closed form" in m for m in _diag_check(wl, rows, trials))


def test_diag_check_rejects_leakage_of_single_codeword_bins(outputs):
    """S = 1 bins leak E mu = 0.780 at n = 2 (docs/decisions.md)."""
    wl, rows, trials = _diag(outputs)
    rows[0]["mu_hat"] = 0.780
    bad = _diag_check(wl, rows, trials)
    assert any("not within 4 se" in m for m in bad)
    assert any("covering bound" in m for m in bad)


def test_diag_check_rejects_leakage_above_the_covering_bound(outputs):
    wl, rows, trials = _diag(outputs)
    c = checks.EVE_CROSSOVER
    i2 = math.log2(2 * (c * c + (1 - c) ** 2))
    row = rows[-1]
    row["mu_hat"] = min(2.0, math.sqrt((2.0 ** (row["n"] * i2) - 1) / row["S"])) + 1e-6
    assert any("covering bound" in m for m in _diag_check(wl, rows, trials))


@pytest.mark.parametrize("key", ["marginal_residual", "fixup_cost"])
def test_diag_check_rejects_nonzero_repair(outputs, key):
    wl, rows, trials = _diag(outputs)
    rows[0][key] = 1e-6
    assert any(key in m for m in _diag_check(wl, rows, trials))


def test_diag_check_rejects_an_error_rate_outside_zero_one(outputs):
    wl, rows, trials = _diag(outputs)
    rows[0]["lambda_hat"] = 1.5
    assert any("lambda_hat" in m for m in _diag_check(wl, rows, trials))


def test_codesim_checks_reject_missing_block_lengths(outputs):
    wl, rows, trials = _diag(outputs)
    assert any("expected" in m for m in _diag_check(wl, rows[:-1], trials))
    wl, rows, trials = _dense(outputs)
    rows[0]["n"] += 1
    assert any("expected" in m for m in _dense_check(wl, rows, trials))


def test_exact_random_bin_leakage_matches_the_documented_values():
    """E mu = 0.5850 (n=2, S=2) and 0.6765 (n=4, S=3), docs/decisions.md."""
    assert checks.random_bin_leakage(2, 2)[0] == pytest.approx(0.5850, abs=5e-5)
    assert checks.random_bin_leakage(4, 3)[0] == pytest.approx(0.6765, abs=5e-5)
    assert checks.random_bin_leakage(2, 1)[0] == pytest.approx(0.780, abs=5e-4)


# ---------------------------------------------------------------------------
# The command itself
# ---------------------------------------------------------------------------


def _bench_command(workload, trace, cwd=ROOT):
    """The command at canonical size; `--seconds 1` still runs one whole round."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_metrics_named_in_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench_command("codesim-dense-n4", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace:
        assert set(result["metrics"]) == set(PER_LAYER_UNITS)


def test_a_run_whose_every_round_fails_is_not_correct(tmp_path):
    wl = WORKLOADS["codesim-diag-n10"](7, str(tmp_path), **TINY["codesim-diag-n10"])
    runner = run.Runner(wl, wl.write_inputs())

    def broken(argv):
        raise RuntimeError("broken program")

    runner.cli_main = broken
    runner.one_round()
    assert runner.failed == runner.attempted == len(runner.calls)
    assert runner.finish()


def test_the_calls_of_a_round_with_a_failure_are_still_compared(tmp_path):
    """A round of two calls whose first failed: the second must still print
    what it printed in the first checked round."""
    wl = WORKLOADS["codesim-diag-n10"](7, str(tmp_path), **TINY["codesim-diag-n10"])
    runner = run.Runner(wl, [])
    runner.first_stdouts = ["first call", "second call"]
    runner.check([None, "second call"])
    assert runner.problems == []
    runner.check([None, "something else"])
    assert any("deterministic" in p for p in runner.problems)


def test_benchmark_json_lists_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench_command("codesim-dense-n4", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
