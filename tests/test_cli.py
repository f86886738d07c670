import dataclasses
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import noisy_superdense, pure_state
from wiretap.channels import CqEnsemble, QuantumChannel, apply, channel_from_json
from wiretap.cli import main
from wiretap.entropic import von_neumann_entropy
from wiretap.qcore import (
    DensityOperator,
    LabeledSpace,
    ResourceLimitError,
    basis_state,
    maximally_entangled,
    partial_trace,
    permute_factors,
    purify,
    save_state,
    tensor,
)
from wiretap.rates import theorem1_rate
from wiretap.scenario import Scenario, build_gallery, gallery_names, load_scenario, save_scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gallery_names_and_roundtrip(tmp_path, capsys):
    assert gallery_names() == [
        "broadcast",
        "broadcast_bell",
        "classical",
        "superdense",
        "trivial",
    ]
    for name in gallery_names():
        code, out, _ = run_cli(capsys, "gallery", name, "--out", str(tmp_path))
        assert code == 0
        path = out.strip()
        sc = load_scenario(path)
        assert sc.name == name
        # Round trip: save -> load preserves the matrices bit for bit.
        path2 = tmp_path / f"again_{name}.json"
        save_scenario(sc, path2)
        sc2 = load_scenario(path2)
        assert np.array_equal(sc.resource.matrix, sc2.resource.matrix)
        for k1, k2 in zip(sc.channel.kraus, sc2.channel.kraus):
            assert np.array_equal(k1, k2)


def test_gallery_unknown_name(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gallery", "nope", "--out", str(tmp_path))
    assert code == 2
    payload = json.loads(err.splitlines()[0])
    assert payload["type"] == "validation"
    assert "broadcast" in payload["error"]  # lists available galleries


def test_gallery_classical_with_pmf(tmp_path, capsys):
    pmf = [[[0.5], [0.0]], [[0.0], [0.5]]]  # correlated bits, trivial Eve share
    pmf_path = tmp_path / "pmf.json"
    pmf_path.write_text(json.dumps(pmf))
    code, out, _ = run_cli(
        capsys, "gallery", "classical", "--pmf", str(pmf_path), "--out", str(tmp_path)
    )
    assert code == 0
    sc = load_scenario(out.strip())
    # Diagonal resource marginals must match the pmf marginals.
    diag = np.real(np.diag(sc.resource.matrix)).reshape(2, 2, 1)
    assert np.allclose(diag, pmf, atol=1e-12)
    assert sc.ensemble is not None  # XOR-pad ensemble bundled


@pytest.mark.parametrize(
    "pmf, message", [([["a"]], "numbers"), ([[[float("nan")]], [[1.0]]], "finite")]
)
def test_gallery_classical_refuses_bad_pmf(tmp_path, capsys, pmf, message):
    pmf_path = tmp_path / "pmf.json"
    pmf_path.write_text(json.dumps(pmf))
    code, out, err = run_cli(
        capsys, "gallery", "classical", "--pmf", str(pmf_path), "--out", str(tmp_path)
    )
    assert code == 2 and not out
    assert not (tmp_path / "classical.json").exists()
    assert message in json.loads(err.splitlines()[0])["error"]


def test_gallery_classical_refuses_an_oversized_pmf_with_exit_3(tmp_path, capsys, monkeypatch):
    # A 280 KB file of 16384 entries would make a 6 GiB diagonal resource.
    def no_diag(*args, **kwargs):
        raise AssertionError("np.diag reached")

    monkeypatch.setattr(np, "diag", no_diag)
    pmf_path = tmp_path / "pmf.json"
    pmf_path.write_text(json.dumps([[[2.0**-14] * 2**14]]))
    code, out, err = run_cli(
        capsys, "gallery", "classical", "--pmf", str(pmf_path), "--out", str(tmp_path)
    )
    assert code == 3 and not out
    assert json.loads(err.splitlines()[0])["type"] == "resource-limit"
    assert not (tmp_path / "classical.json").exists()


def test_rate_eval_trivial_gallery_all_modes(tmp_path, capsys):
    sc_path = tmp_path / "trivial.json"
    save_scenario(build_gallery("trivial"), sc_path)
    rates = {}
    for mode in ("theorem1", "trivial", "unassisted"):
        code, out, err = run_cli(
            capsys, "rate-eval", "--scenario", str(sc_path), "--mode", mode
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "mode",
            "rate",
            "i_u_bb",
            "i_u_ee",
            "i_u_aprime",
            "constraint_residual",
            "feasible",
            "note",
        }
        rates[mode] = payload["rate"]
        assert "rate=" in err
    assert rates["theorem1"] == pytest.approx(1.0, abs=1e-10)
    assert rates["theorem1"] == pytest.approx(rates["unassisted"], abs=1e-12)
    assert rates["theorem1"] == pytest.approx(rates["trivial"], abs=1e-10)


def test_rate_eval_superdense(tmp_path, capsys):
    sc_path = tmp_path / "superdense.json"
    save_scenario(build_gallery("superdense"), sc_path)
    code, out, _ = run_cli(capsys, "rate-eval", "--scenario", str(sc_path))
    assert code == 0
    assert json.loads(out)["rate"] == pytest.approx(2.0, abs=1e-9)
    code, out, _ = run_cli(
        capsys, "rate-eval", "--scenario", str(sc_path), "--mode", "trivial"
    )
    assert json.loads(out)["rate"] == pytest.approx(2.0, abs=1e-9)
    # The members carry the Bell pair's two-dimensional reference copy.
    code, out, err = run_cli(
        capsys, "rate-eval", "--scenario", str(sc_path), "--mode", "unassisted"
    )
    assert code == 2 and not out
    assert "one-dimensional factors aside" in json.loads(err.splitlines()[0])["error"]


@pytest.mark.parametrize(
    "probs, message",
    [
        ([0.9, 0.9, -0.4, -0.4], "negative"),
        ([0.5, 0.5, 0.5, 0.5], "sum"),
        (["a", "b", "c", "d"], "numbers"),
        ([float("nan"), 0.25, 0.25, 0.25], "finite"),
    ],
)
def test_rate_eval_refuses_bad_modulation_probs(tmp_path, capsys, probs, message):
    from wiretap.scenario import scenario_to_json

    obj = scenario_to_json(build_gallery("superdense"))
    obj["modulation_probs"] = probs
    sc_path = tmp_path / "bad.json"
    sc_path.write_text(json.dumps(obj))
    code, out, err = run_cli(
        capsys, "rate-eval", "--scenario", str(sc_path), "--mode", "trivial"
    )
    assert code == 2 and not out
    error = json.loads(err.splitlines()[0])["error"]
    assert "modulation_probs" in error and message in error


def test_rate_eval_table_format(tmp_path, capsys):
    sc_path = tmp_path / "trivial.json"
    save_scenario(build_gallery("trivial"), sc_path)
    code, out, _ = run_cli(
        capsys, "rate-eval", "--scenario", str(sc_path), "--format", "table"
    )
    assert code == 0
    assert "rate" in out.splitlines()[0]


def test_rate_eval_malformed_matrix(tmp_path, capsys):
    from wiretap.scenario import scenario_to_json

    sc_path = tmp_path / "bad.json"
    obj = scenario_to_json(build_gallery("trivial"))
    obj["resource"]["matrix"] = [[[1.0, 0.5]]]  # non-Hermitian 1x1 entry
    sc_path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "rate-eval", "--scenario", str(sc_path))
    assert code == 2
    payload = json.loads(err.splitlines()[0])
    assert "Hermitian" in payload["error"]
    assert "resource" in payload["error"]  # field path


def test_rate_eval_invalid_json_cites_offset(tmp_path, capsys):
    sc_path = tmp_path / "broken.json"
    sc_path.write_text('{"name": "x", ')
    code, _, err = run_cli(capsys, "rate-eval", "--scenario", str(sc_path))
    assert code == 2
    payload = json.loads(err.splitlines()[0])
    assert "byte offset" in payload["error"]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("labels", [[0], [1], [2], [3]], "hashable"),
        ("probs", ["a", 0.25, 0.25, 0.25], "numbers"),
        ("probs", [float("nan"), 0.25, 0.25, 0.25], "finite"),
        ("states", 5, "states must be a list"),
        ("labels", 3, "labels must be a list"),
    ],
)
def test_rate_eval_refuses_ill_typed_ensemble(tmp_path, capsys, field, value, message):
    from wiretap.scenario import scenario_to_json

    obj = scenario_to_json(build_gallery("superdense"))
    assert len(obj["ensemble"][field]) == 4
    obj["ensemble"][field] = value
    sc_path = tmp_path / "bad.json"
    sc_path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "rate-eval", "--scenario", str(sc_path))
    assert code == 2
    assert message in json.loads(err.splitlines()[0])["error"]


def test_rate_eval_refuses_modulations_that_are_not_a_list(tmp_path, capsys):
    from wiretap.scenario import scenario_to_json

    obj = scenario_to_json(build_gallery("superdense"))
    obj["modulations"] = 5
    sc_path = tmp_path / "bad.json"
    sc_path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "rate-eval", "--scenario", str(sc_path), "--mode", "trivial")
    assert code == 2 and not out
    assert "modulations: must be a list" in json.loads(err.splitlines()[0])["error"]


@pytest.mark.parametrize(
    "command, where",
    [
        pytest.param("rate-eval", "probs", id="rate-eval"),
        pytest.param("resource-analyze", "factors", id="resource-analyze"),
        pytest.param("resource-analyze", "matrix", id="resource-analyze-matrix"),
        pytest.param("gallery", "pmf", id="gallery-pmf"),
    ],
)
def test_json_booleans_exit_2(tmp_path, capsys, command, where):
    # A state file with the factor ["C", true] or the entry [true, false], a
    # scenario whose ensemble probabilities hold true/false and the pmf
    # [[[true]]] would otherwise load as dimension 1, the number 1 + 0i,
    # probabilities 1 and 0 and the point mass.
    from wiretap.qcore import state_to_json
    from wiretap.scenario import scenario_to_json

    path = tmp_path / "bad.json"
    message = "not booleans"
    if where == "probs":
        obj = scenario_to_json(build_gallery("superdense"))
        obj["ensemble"]["probs"] = [True, False, False, False]
        argv = ["--scenario", str(path)]
    elif where == "factors":
        bell = maximally_entangled("A", "B", 2)
        obj = state_to_json(tensor(bell, basis_state(LabeledSpace.of(("C", 1)), [0])))
        obj["factors"][2][1] = True
        argv = ["--state", str(path), "--seed", "1"]
        message = "must be [string, integer]"
    elif where == "matrix":
        space = LabeledSpace.of(("A", 2), ("B", 2), ("C", 2))
        obj = state_to_json(basis_state(space, [0, 0, 0]))
        obj["matrix"][0][0] = [True, False]
        argv = ["--state", str(path), "--seed", "1"]
    else:
        obj = [[[True]]]
        argv = ["classical", "--pmf", str(path), "--out", str(tmp_path)]
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 2 and not out
    assert message in json.loads(err.splitlines()[0])["error"]
    assert not (tmp_path / "classical.json").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["rate-eval", "resource-analyze"])
def test_non_finite_matrix_entries_exit_2(tmp_path, capsys, command, value):
    # One bad entry above the diagonal used to pass every check (NaN compares
    # false) and print numbers, or crash in an eigensolver.
    from wiretap.qcore import state_to_json
    from wiretap.scenario import scenario_to_json

    path = tmp_path / "bad.json"
    if command == "rate-eval":
        obj = scenario_to_json(build_gallery("superdense"))
        obj["channel"]["kraus"][0][0][1][0] = value
        argv = ["--scenario", str(path)]
    else:
        bell = maximally_entangled("A", "B", 2)
        obj = state_to_json(tensor(bell, basis_state(LabeledSpace.of(("C", 2)), [0])))
        obj["matrix"][0][1][0] = value
        argv = ["--state", str(path), "--seed", "1"]
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 2 and not out
    assert "entries must be finite" in json.loads(err.splitlines()[0])["error"]


def test_rate_optimize_superdense_and_witness_reload(tmp_path, capsys):
    sc_path = tmp_path / "superdense.json"
    save_scenario(build_gallery("superdense"), sc_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"restarts": 2, "max_iters": 120}))
    out_dir = tmp_path / "opt"
    code, out, _ = run_cli(
        capsys,
        "rate-optimize",
        "--scenario",
        str(sc_path),
        "--config",
        str(cfg_path),
        "--seed",
        "7",
        "--out",
        str(out_dir),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["best_value"] >= 2.0 - 1e-3
    assert (out_dir / "optresult.json").exists()
    # The witness ensemble is a standard ensemble file, re-usable in a scenario.
    witness = json.loads((out_dir / "witness_ensemble.json").read_text())
    sc_obj = json.loads(sc_path.read_text())
    sc_obj["ensemble"] = witness
    sc2_path = tmp_path / "with_witness.json"
    sc2_path.write_text(json.dumps(sc_obj))
    code, out, _ = run_cli(capsys, "rate-eval", "--scenario", str(sc2_path))
    assert code == 0
    assert json.loads(out)["rate"] == pytest.approx(payload["best_value"], abs=1e-9)


def clashing_trivial_scenario(tmp_path):
    """The trivial gallery with a resource whose Bob share bears the name of
    phi0's copy of Alice's share, "App", which the resource-channel
    decomposition refuses."""
    space = LabeledSpace.of(("Ap", 2), ("App", 2), ("Ep", 1))
    resource = DensityOperator(space, np.eye(4) / 4)
    path = tmp_path / "clash.json"
    save_scenario(dataclasses.replace(build_gallery("trivial"), resource=resource), path)
    return path


@pytest.mark.parametrize("command", ["rate-eval", "rate-optimize"])
def test_unassisted_modes_never_decompose_the_resource(tmp_path, capsys, command):
    sc_path = clashing_trivial_scenario(tmp_path)
    cfg_path = tmp_path / "opt.json"
    cfg_path.write_text(json.dumps({"seed": 1, "restarts": 1, "max_iters": 5}))
    extra = ["--config", str(cfg_path), "--out", str(tmp_path)] if command == "rate-optimize" else []
    code, out, _ = run_cli(capsys, command, "--scenario", str(sc_path), "--mode", "unassisted", *extra)
    assert code == 0
    assert json.loads(out)
    code, _, err = run_cli(capsys, command, "--scenario", str(sc_path), "--mode", "theorem1", *extra)
    assert code == 2
    assert "'App' clashes with resource labels" in json.loads(err.splitlines()[0])["error"]


def test_rate_optimize_requires_seed(tmp_path, capsys):
    sc_path = tmp_path / "trivial.json"
    save_scenario(build_gallery("trivial"), sc_path)
    code, _, err = run_cli(capsys, "rate-optimize", "--scenario", str(sc_path))
    assert code == 2
    assert "seed" in json.loads(err.splitlines()[0])["error"]


def test_rate_optimize_idempotent(tmp_path, capsys):
    sc_path = tmp_path / "trivial.json"
    save_scenario(build_gallery("trivial"), sc_path)
    outs = []
    for run in range(2):
        out_dir = tmp_path / f"opt{run}"
        code, out, _ = run_cli(
            capsys,
            "rate-optimize",
            "--scenario",
            str(sc_path),
            "--mode",
            "unassisted",
            "--seed",
            "3",
            "--out",
            str(out_dir),
        )
        assert code == 0
        outs.append((out_dir / "optresult.json").read_text())
    assert outs[0] == outs[1]
    # Trace rows are [restart, iteration, value], never above the best value.
    payload = json.loads(outs[0])
    rows = payload["trace"]
    assert rows and all(len(row) == 3 and row[2] <= payload["best_value"] + 1e-9 for row in rows)


def test_rate_optimize_broadcast_bell_reports_lower_bound(tmp_path, capsys):
    sc_path = tmp_path / "broadcast_bell.json"
    save_scenario(build_gallery("broadcast_bell"), sc_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"restarts": 1, "max_iters": 60}))
    code, out, _ = run_cli(
        capsys,
        "rate-optimize",
        "--scenario",
        str(sc_path),
        "--config",
        str(cfg_path),
        "--seed",
        "2",
        "--out",
        str(tmp_path / "bb"),
    )
    assert code == 0
    payload = json.loads(out)
    assert "lower bound" in payload["meaning"]
    assert "n=1" in payload["meaning"]
    assert payload["report"]["constraint_residual"] <= 1e-6


def test_resource_analyze_bell(tmp_path, capsys):
    state = tensor(
        maximally_entangled("Ap", "Bp", 2),
        basis_state(LabeledSpace.of(("Cp", 2)), [0]),
    )
    path = tmp_path / "bell.json"
    save_state(state, path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"restarts": 3, "max_iters": 400}))
    code, out, _ = run_cli(
        capsys,
        "resource-analyze",
        "--state",
        str(path),
        "--config",
        str(cfg_path),
        "--seed",
        "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"delta", "e_p", "s_bprime", "residual", "witnesses"}
    assert payload["delta"] == pytest.approx(1.0, abs=1e-3)
    assert payload["e_p"] == pytest.approx(0.0, abs=1e-3)
    assert payload["s_bprime"] == pytest.approx(1.0, abs=1e-10)
    assert payload["residual"] <= 1e-3
    assert "kraus" in payload["witnesses"]["delta"]


def test_resource_analyze_is_repeatable_and_scored_at_its_witnesses(tmp_path, capsys):
    # The same rules a benchmark round applies: a second call in one process
    # prints the same bytes, every value is finite, and delta and E_P are
    # reproduced at the JSON witnesses on the canonical purification.
    gen = np.random.default_rng(1313)
    v = gen.standard_normal(8) + 1j * gen.standard_normal(8)
    space = LabeledSpace.of(("A", 2), ("B", 2), ("C", 2))
    state = pure_state(space, v / np.linalg.norm(v))
    path = tmp_path / "psi.json"
    save_state(state, path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"restarts": 3, "max_iters": 60}))
    argv = ["resource-analyze", "--state", str(path), "--config", str(cfg_path), "--seed", "13"]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]

    payload = json.loads(first[1])
    witnesses = payload.pop("witnesses")
    assert all(np.isfinite(x) for x in payload.values())
    delta_ch = channel_from_json(witnesses["delta"])
    ep_ch = channel_from_json(witnesses["e_p"])
    for ch in (delta_ch, ep_ch):
        assert all(np.all(np.isfinite(k)) for k in ch.kraus)

    s_b = von_neumann_entropy(partial_trace(state, {"B"}))
    omega = apply(delta_ch, partial_trace(state, {"A", "B"}), on=["A"])
    assert abs(s_b - von_neumann_entropy(omega) - payload["delta"]) <= 1e-8

    (e_label,) = ep_ch.input_space.labels
    rho_cb = permute_factors(partial_trace(state, {"C", "B"}), ["C", "B"])
    psi_ce = partial_trace(purify(rho_cb, e_label), {"C", e_label})
    omega = apply(ep_ch, psi_ce, on=[e_label])
    assert abs(von_neumann_entropy(omega) - payload["e_p"]) <= 1e-8


def test_resource_analyze_refuses_zero_cap(tmp_path, capsys):
    state = tensor(
        maximally_entangled("Ap", "Bp", 2),
        basis_state(LabeledSpace.of(("Cp", 2)), [0]),
    )
    path = tmp_path / "bell.json"
    save_state(state, path)
    code, out, err = run_cli(
        capsys, "resource-analyze", "--state", str(path), "--seed", "5", "--dim-a-cap", "0"
    )
    assert code == 2 and not out
    assert "dim_a_cap" in json.loads(err.splitlines()[0])["error"]


@pytest.mark.parametrize(
    "argv",
    [["resource-analyze", "--seed", "5", "--state"], ["rate-eval", "--scenario"]],
    ids=["resource-analyze", "rate-eval"],
)
@pytest.mark.parametrize(
    "content, message",
    [
        ('{"é": '.encode(), "invalid JSON at byte offset 7"),  # 6 characters, 7 bytes
        (b'{"factors": \xff}', "not UTF-8 at byte offset 12"),
        (None, "No such file"),
    ],
    ids=["invalid-json", "not-utf8", "missing"],
)
def test_unreadable_input_file_exits_2(tmp_path, capsys, argv, content, message):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and not out
    error = json.loads(err.splitlines()[0])["error"]
    assert error.startswith(str(path)) and message in error


def test_state_file_refusal_names_the_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"factors": [["A", 1]], "matrix": [[[1.0, 0.5]]]}))
    code, out, err = run_cli(capsys, "resource-analyze", "--seed", "5", "--state", str(path))
    assert code == 2 and not out
    error = json.loads(err.splitlines()[0])["error"]
    assert error.startswith(f"{path}: ") and "not Hermitian" in error


@pytest.mark.parametrize("argv", [["rate-eval"], ["code-sim", "--seed", "1"]])
def test_ensemble_that_misses_the_channel_input_exits_2(tmp_path, capsys, monkeypatch, argv):
    # The classical gallery's ensemble moved to a qutrit signal: the channel
    # takes a qubit, so both commands refuse it as invalid input.
    monkeypatch.chdir(tmp_path)  # code-sim's default --out
    sc = build_gallery("classical")
    space = LabeledSpace.of(("A", 3), ("App", 1))
    members = [basis_state(space, [i, 0]) for i in range(2)]
    ens = CqEnsemble([0, 1], [0.5, 0.5], members)
    sc_path = tmp_path / "mismatched.json"
    save_scenario(Scenario("mismatched", "test instance", sc.channel, sc.resource, ens), sc_path)
    code, out, err = run_cli(capsys, *argv, "--scenario", str(sc_path))
    assert code == 2 and not out
    assert "channel expects (2,)" in json.loads(err.splitlines()[0])["error"]


def test_code_sim_csv_and_caps(tmp_path, capsys):
    sc_path = tmp_path / "classical.json"
    save_scenario(build_gallery("classical"), sc_path)
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({"n": [2, 3], "epsilon": 0.1, "trials": 3, "rate": 0.3}))
    code, out, err = run_cli(
        capsys,
        "code-sim",
        "--scenario",
        str(sc_path),
        "--config",
        str(cfg_path),
        "--seed",
        "9",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,M,S,rate,lambda_hat,mu_hat,marginal_residual,fixup_cost,ci"
    assert len(lines) == 3
    trials = json.loads((tmp_path / "codesim_trials.json").read_text())
    assert len(trials) == 2 and len(trials[0]["lambda_trials"]) == 3

    big_cfg = tmp_path / "big.json"
    big_cfg.write_text(json.dumps({"n": [30], "epsilon": 0.1, "trials": 1, "rate": 0.3}))
    code, _, err = run_cli(
        capsys,
        "code-sim",
        "--scenario",
        str(sc_path),
        "--config",
        str(big_cfg),
        "--seed",
        "9",
        "--out",
        str(tmp_path),
    )
    assert code == 3
    assert json.loads(err.splitlines()[0])["type"] == "resource-limit"


def test_code_sim_warns_once_per_degenerate_block_length(tmp_path, capsys):
    # Bob and Eve see the same copy, so every block length gives M = 1.
    sc_path = tmp_path / "broadcast.json"
    save_scenario(build_gallery("broadcast"), sc_path)
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({"n": [1, 2], "trials": 2}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run_cli(
            capsys, "code-sim", "--scenario", str(sc_path), "--config", str(cfg_path),
            "--seed", "1", "--out", str(tmp_path),
        )
    assert code == 0
    texts = [str(w.message) for w in caught]
    assert len(texts) == 2
    assert all(f"degenerate single-message code at n={n}: log2 M" in t for n, t in zip((1, 2), texts))


def test_rate_eval_refuses_oversized_side_map(tmp_path, capsys, monkeypatch):
    # The identity A(128) -> (B 128, E 1) with an empty resource: Bob's side
    # map would take 16 * 128^4 bytes = 4 GiB, so it is refused before any
    # Liouville tensor is built.
    import wiretap.rates

    def no_alloc(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("side map built before the byte check")

    monkeypatch.setattr(wiretap.rates, "_side_liouville", no_alloc)
    channel = QuantumChannel(
        LabeledSpace.of(("A", 128)), LabeledSpace.of(("B", 128), ("E", 1)), [np.eye(128)]
    )
    resource = basis_state(LabeledSpace.of(("Ap", 1), ("Bp", 1), ("Ep", 1)), [0, 0, 0])
    member = basis_state(LabeledSpace.of(("A", 128), ("App", 1)), [0, 0])
    sc = Scenario("wide", "wide identity", channel, resource, CqEnsemble([0], [1.0], [member]))
    with pytest.raises(ResourceLimitError, match="4.0 GiB"):
        theorem1_rate(sc.ensemble, sc.channel, sc.resource_state())
    sc_path = tmp_path / "wide.json"
    save_scenario(sc, sc_path)
    code, _, err = run_cli(capsys, "rate-eval", "--scenario", str(sc_path))
    assert code == 3
    assert json.loads(err.splitlines()[0])["type"] == "resource-limit"


def test_cli_subprocess_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wiretap", "gallery", "trivial", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "trivial.json").exists()


def test_rate_optimize_witness_file_reloads_after_projection(tmp_path, capsys):
    # The witness file rate-optimize writes must load back through
    # ensemble_from_json as a valid ensemble that meets the average-marginal
    # constraint.
    from reference import marginal_constraint_residual
    from wiretap.channels import ensemble_from_json
    from wiretap.rates import FEASIBILITY_THRESHOLD

    sc = build_gallery("superdense")
    sc_path = tmp_path / "superdense.json"
    save_scenario(sc, sc_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1, "restarts": 2, "max_iters": 60}))
    out_dir = tmp_path / "opt"
    code, _, _ = run_cli(
        capsys, "rate-optimize", "--scenario", str(sc_path), "--mode", "theorem1",
        "--config", str(cfg_path), "--out", str(out_dir),
    )
    assert code == 0
    witness = ensemble_from_json(json.loads((out_dir / "witness_ensemble.json").read_text()))
    residual = marginal_constraint_residual(witness, sc.resource_state())
    assert residual <= FEASIBILITY_THRESHOLD


def test_cli_import_does_not_load_scipy():
    import os

    import wiretap

    src = os.path.dirname(os.path.dirname(os.path.abspath(wiretap.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, wiretap.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_code_sim_refuses_oversized_dense_run(tmp_path, capsys, monkeypatch):
    # Superdense with a noisy Bell pair at n = 6 passes the dimension cap
    # (4^6 = 4096 per side), but Bob's outputs are full rank, so there is no
    # smaller Gram matrix, and its 220 dense bin averages would need ~57 GiB:
    # refused before allocating.
    import wiretap.codesim

    def no_alloc(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("bin averages allocated before the byte check")

    monkeypatch.setattr(wiretap.codesim, "_bin_average", no_alloc)
    monkeypatch.setattr(wiretap.codesim, "_gram_pgm_error", no_alloc)
    sc_path = tmp_path / "noisy-superdense.json"
    save_scenario(noisy_superdense(), sc_path)
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({"n": [6], "epsilon": 0.1, "trials": 1}))
    code, _, err = run_cli(
        capsys, "code-sim", "--scenario", str(sc_path), "--config", str(cfg_path),
        "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 3
    payload = json.loads(err.splitlines()[0])
    assert payload["type"] == "resource-limit"
    assert "GiB" in payload["error"]


@pytest.mark.parametrize(
    "cfg", [{"n": [1], "epsilon": 2000}, {"n": [2], "rate": 1100}, {"n": [1], "epsilon": 1e308}]
)
def test_code_sim_refuses_code_sizes_beyond_a_float(tmp_path, capsys, cfg):
    sc_path = tmp_path / "classical.json"
    save_scenario(build_gallery("classical"), sc_path)
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({"seed": 1, "trials": 1, **cfg}))
    code, _, err = run_cli(
        capsys, "code-sim", "--scenario", str(sc_path), "--config", str(cfg_path),
        "--out", str(tmp_path),
    )
    assert code == 3
    payload = json.loads(err.splitlines()[0])
    assert payload["type"] == "resource-limit"
    assert f"block length {cfg['n'][0]}" in payload["error"]


def _rate_optimize_with_config(tmp_path, capsys, cfg: dict):
    sc_path = tmp_path / "trivial.json"
    save_scenario(build_gallery("trivial"), sc_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return run_cli(
        capsys, "rate-optimize", "--scenario", str(sc_path), "--config", str(cfg_path),
        "--out", str(tmp_path),
    )


@pytest.mark.parametrize(
    "key, value",
    [("step_schedule", "geometric(0.5,0.5,25)"), ("penalty_weight", 32.0), ("tolerance", 1e-9)],
)
def test_rate_optimize_refuses_removed_config_keys(tmp_path, capsys, key, value):
    code, _, err = _rate_optimize_with_config(tmp_path, capsys, {"seed": 1, key: value})
    assert code == 2
    payload = json.loads(err.splitlines()[0])
    assert payload["type"] == "validation"
    assert key in payload["error"]


@pytest.mark.parametrize(
    "cfg",
    [
        {"seed": 1, "restarts": "2"},
        {"seed": "7"},
        {"seed": 1, "max_iters": 2.5},
        {"seed": True},
        {"seed": 1, "num_labels_max": 1.5},
    ],
)
def test_rate_optimize_refuses_non_integer_config(tmp_path, capsys, cfg):
    code, _, err = _rate_optimize_with_config(tmp_path, capsys, cfg)
    assert code == 2
    assert "must be an integer" in json.loads(err.splitlines()[0])["error"]


@pytest.mark.parametrize(
    "cfg",
    [
        {"n": 4},
        {"n": [0]},
        {"n": []},
        {"n": [True]},
        {"trials": "3"},
        {"seed": "abc"},
        {"epsilon": "x"},
        {"rate": "x"},
    ],
)
def test_code_sim_refuses_ill_typed_config(tmp_path, capsys, cfg):
    sc_path = tmp_path / "classical.json"
    save_scenario(build_gallery("classical"), sc_path)
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({"seed": 1, "n": [2], "trials": 1, **cfg}))
    code, _, err = run_cli(
        capsys, "code-sim", "--scenario", str(sc_path), "--config", str(cfg_path),
        "--out", str(tmp_path),
    )
    assert code == 2
    assert json.loads(err.splitlines()[0])["type"] == "validation"


def random_three_qubit_file(tmp_path, seed):
    gen = np.random.default_rng(seed)
    v = gen.standard_normal(8) + 1j * gen.standard_normal(8)
    space = LabeledSpace.of(("A", 2), ("B", 2), ("C", 2))
    path = tmp_path / "psi.json"
    save_state(pure_state(space, v / np.linalg.norm(v)), path)
    return path


def test_search_outputs_are_json_with_float_values(tmp_path, capsys):
    # The searches score candidates in numpy batches; the files and lines the
    # CLI writes must still parse as JSON, with plain numbers.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"restarts": 2, "max_iters": 30}))
    state = random_three_qubit_file(tmp_path, 1414)
    code, out, _ = run_cli(
        capsys, "resource-analyze", "--state", str(state), "--config", str(cfg_path), "--seed", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(type(payload[k]) is float for k in ("delta", "e_p", "s_bprime", "residual"))

    sc_path = tmp_path / "superdense.json"
    save_scenario(build_gallery("superdense"), sc_path)
    argv = ["--config", str(cfg_path), "--seed", "2", "--out", str(tmp_path / "opt")]
    code, out, _ = run_cli(capsys, "rate-optimize", "--scenario", str(sc_path), *argv)
    assert code == 0
    payload = json.loads((tmp_path / "opt" / "optresult.json").read_text())
    assert payload["best_value"] == json.loads(out)["best_value"]
    assert type(payload["best_value"]) is float
    assert all(type(row[2]) is float for row in payload["trace"])


@pytest.mark.parametrize(
    "argv",
    [
        ["resource-analyze", "--dim-a-cap", str(2**24)],
        ["resource-analyze", "--dim-f-cap", str(2**24)],
        ["rate-optimize", "--scenario", "SUPERDENSE", "--out", "OUT"],
    ],
)
def test_searches_refuse_oversized_requests_with_exit_3(tmp_path, capsys, argv):
    # Each request's byte estimate is far over the limit: refused, exit 3,
    # and no output written.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"restarts": 1, "max_iters": 1, "num_labels_max": 10**7}))
    sc_path = tmp_path / "superdense.json"
    save_scenario(build_gallery("superdense"), sc_path)
    paths = {"SUPERDENSE": str(sc_path), "OUT": str(tmp_path / "opt")}
    argv = [paths.get(a, a) for a in argv]
    if argv[0] == "resource-analyze":
        argv += ["--state", str(random_three_qubit_file(tmp_path, 1415))]
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg_path), "--seed", "1")
    assert code == 3 and not out
    assert json.loads(err.splitlines()[0])["type"] == "resource-limit"
    assert not (tmp_path / "opt").exists()
