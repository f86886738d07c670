import json
import subprocess
import sys

import numpy as np
import pytest

from wiretap.cli import main
from wiretap.qcore import LabeledSpace, basis_state, maximally_entangled, save_state, tensor
from wiretap.scenario import build_gallery, gallery_names, load_scenario, save_scenario


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


def test_cli_subprocess_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wiretap", "gallery", "trivial", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "trivial.json").exists()


def test_rate_optimize_witness_file_reloads_after_projection(tmp_path, capsys):
    # At these settings the searched restarts end on repair members of
    # weight ~2e-9; whichever witness wins, its file must load as a valid
    # ensemble that meets the average-marginal constraint.
    from wiretap.channels import ensemble_from_json
    from wiretap.rates import FEASIBILITY_THRESHOLD, marginal_constraint_residual

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
    # Superdense at n = 5 passes the dimension cap (4^5 = 1024 per side) but
    # its 512 dense bin averages would need ~16 GiB: refused before allocating.
    import wiretap.codesim

    def no_alloc(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("bin averages allocated before the byte check")

    monkeypatch.setattr(wiretap.codesim, "_bin_average", no_alloc)
    sc_path = tmp_path / "superdense.json"
    save_scenario(build_gallery("superdense"), sc_path)
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({"n": [5], "epsilon": 0.1, "trials": 1}))
    code, _, err = run_cli(
        capsys, "code-sim", "--scenario", str(sc_path), "--config", str(cfg_path),
        "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 3
    payload = json.loads(err.splitlines()[0])
    assert payload["type"] == "resource-limit"
    assert "GiB" in payload["error"]


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
