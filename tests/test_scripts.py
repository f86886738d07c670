"""Smoke runs of the experiment scripts at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import wiretap

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(wiretap.__file__).resolve().parents[1])


def run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_codesim_trends():
    lines = run_script("run_codesim_trends.py", "--seed", "1", "--trials", "2", "--n", "2", "4")
    header = "n,M,S,rate,lambda_hat,mu_hat,marginal_residual,fixup_cost,ci"
    assert lines[0].startswith("# no resource: one-letter rate")
    assert lines[4].startswith("# shared pad bit: one-letter rate")
    assert lines[1] == lines[5] == header
    assert [row.split(",")[0] for row in lines[2:4] + lines[6:8]] == ["2", "4"] * 2


def test_run_duality_scan():
    lines = run_script(
        "run_duality_scan.py", "--seed", "1", "--count", "1", "--restarts", "1", "--max-iters", "20"
    )
    assert lines[0].startswith("state 0: residual ")
    assert lines[1].startswith("max residual over 1 states: ")


def test_run_gallery_rates():
    lines = run_script("run_gallery_rates.py")
    assert lines[0].split() == ["gallery", "mode", "rate", "I(U:BB)", "I(U:EE)", "I(U:A)"]
    assert any(line.startswith("superdense") for line in lines[1:])


def test_run_anchors():
    lines = run_script("run_anchors.py", "--restarts", "1", "--max-iters", "20")
    assert lines[0].split() == ["anchor", "target", "found", "gap", "seconds"]
    names = [line[:20].strip() for line in lines[1:]]
    assert names == [
        "damping gamma=0.1",
        "damping gamma=0.3",
        "damping gamma=0.45",
        "perfect key",
        "noisy key q=0.1",
        "noisy key q=0.3",
    ]
    for line in lines[1:]:
        target, found, gap, seconds = (float(v) for v in line[20:].split())
        # every target is an upper bound; the gap is printed to 3 digits
        assert gap >= -1e-9 and seconds >= 0
        assert abs(target - found - gap) <= 1e-9 + 1e-2 * abs(gap)


def test_seeded_digest():
    name = "rate-optimize superdense theorem1 seed=1"
    lines = run_script("seeded_digest.py", "--only", name)
    assert len(lines) == 1
    digest, called = lines[0].split("  ")
    assert called == name
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
