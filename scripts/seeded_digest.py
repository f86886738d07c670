#!/usr/bin/env python3
"""One sha256 per seeded CLI call, over its stdout and the files it writes.

Runs a fixed list of seeded ``wiretap`` CLI calls in-process:
``rate-optimize`` over every gallery, both modes and seeds 1-3;
``resource-analyze`` on seeded random pure 3-qubit states, one of them
at ``--dim-a-cap 256`` (a large-cap channel search); and ``code-sim`` on
the ``classical`` and ``superdense`` galleries and on
``noisy-superdense``, the superdense gallery with its Bell pair mixed
with white noise at visibility 0.9, whose Bob is decoded from dense bin
averages (4-, 16- and 64-dimensional at n = 1, 2, 3).  Every input is
built from ``wiretap`` itself (bundled galleries, states drawn from
``numpy.random.default_rng([seed, 3])``).  Each output line is
``<sha256>  <call name>``; the digest covers the call's exit code, its
stdout and every file it wrote, with the temporary directory's path
replaced by a fixed token.

A change that must leave every seeded output bitwise the same can be
checked against its parent commit by running this script on both source
trees and diffing the two listings:

    git worktree add /tmp/parent HEAD~1
    PYTHONPATH=/tmp/parent/src python3 scripts/seeded_digest.py > parent.txt
    PYTHONPATH=src python3 scripts/seeded_digest.py > this.txt
    diff parent.txt this.txt && git worktree remove /tmp/parent

The script imports whichever ``wiretap`` is on ``PYTHONPATH``, so the same
copy of it serves both trees.  ``--only TEXT`` runs the calls whose name
contains TEXT.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from wiretap.cli import main as cli_main
from wiretap.qcore import (
    DensityOperator,
    LabeledSpace,
    basis_state,
    maximally_entangled,
    state_to_json,
    tensor,
)
from wiretap.scenario import Scenario, build_gallery, gallery_names, scenario_to_json

OPTIMIZER = {"restarts": 4, "max_iters": 150}
STATE_OPTIMIZER = {"restarts": 5, "max_iters": 100}
CODESIM = {
    "classical": {"n": [2, 3, 4], "epsilon": 0.1, "trials": 3},
    "superdense": {"n": [1, 2, 3], "epsilon": 0.1, "trials": 2},
    "noisy-superdense": {"n": [1, 2, 3], "epsilon": 0.1, "trials": 2},
}


def random_pure_3qubit(seed: int) -> DensityOperator:
    gen = np.random.default_rng([seed, 3])
    v = gen.standard_normal(8) + 1j * gen.standard_normal(8)
    v /= np.linalg.norm(v)
    space = LabeledSpace.of(("A", 2), ("B", 2), ("C", 2))
    return DensityOperator(space, np.outer(v, v.conj()))


def write_json(d: str, name: str, obj) -> str:
    path = os.path.join(d, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def noisy_superdense() -> Scenario:
    """The superdense gallery with its Bell pair mixed with white noise at
    visibility 0.9: Bob's one-letter outputs are full rank, so code-sim
    decodes him densely."""
    sc = build_gallery("superdense")
    bell = maximally_entangled("Ap", "Bp", 2)
    visibility = 0.9
    mixed = visibility * bell.matrix + (1 - visibility) * np.eye(4) / 4
    werner = DensityOperator(bell.space, mixed)
    resource = tensor(werner, basis_state(LabeledSpace.of(("Ep", 1)), [0]))
    return Scenario("noisy-superdense", "white-noise Bell pair", sc.channel, resource, sc.ensemble)


def scenario_file(d: str, gallery: str) -> str:
    sc = noisy_superdense() if gallery == "noisy-superdense" else build_gallery(gallery)
    return write_json(d, "scenario.json", scenario_to_json(sc))


def calls():
    """(name, make_argv) pairs; make_argv(directory) writes the call's
    input files there and returns its arguments."""
    for gallery in gallery_names():
        for mode in ("theorem1", "unassisted"):
            for seed in (1, 2, 3):
                name = f"rate-optimize {gallery} {mode} seed={seed}"
                yield name, lambda d, g=gallery, m=mode, s=seed: [
                    "rate-optimize", "--mode", m, "--seed", str(s), "--out", os.path.join(d, "out"),
                    "--scenario", scenario_file(d, g),
                    "--config", write_json(d, "optimizer.json", OPTIMIZER),
                ]
    # The last call is the large-cap digest: its dense-coding search at cap
    # 256 pads each env = 1 restart (1024 coordinates) into the top rung's
    # 2048-coordinate stack.
    for seed, cap in [(s, None) for s in range(1, 9)] + [(1, 256)]:
        extra = [] if cap is None else ["--dim-a-cap", str(cap)]
        name = f"resource-analyze 3qubit seed={seed}" + (f" dim-a-cap={cap}" if cap else "")
        yield name, lambda d, s=seed, extra=extra: [
            "resource-analyze", "--seed", str(s),
            "--state", write_json(d, "state.json", state_to_json(random_pure_3qubit(s))),
            "--config", write_json(d, "optimizer.json", STATE_OPTIMIZER),
            *extra,
        ]
    for gallery, config in CODESIM.items():
        for seed in (1, 2):
            yield f"code-sim {gallery} seed={seed}", lambda d, g=gallery, c=config, s=seed: [
                "code-sim", "--seed", str(s), "--out", os.path.join(d, "out"),
                "--scenario", scenario_file(d, g),
                "--config", write_json(d, "codesim.json", c),
            ]


def digest(make_argv) -> str:
    """sha256 of one call's exit code, stdout and written files."""
    with tempfile.TemporaryDirectory() as d:
        argv = make_argv(d)
        inputs = set(os.listdir(d))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
        h = hashlib.sha256(f"exit {code}\n".encode())
        h.update(stdout.getvalue().replace(d, "<dir>").encode())
        for root, _, files in sorted(os.walk(d)):
            for name in sorted(files):
                path = os.path.join(root, name)
                if root == d and name in inputs:
                    continue
                h.update(os.path.relpath(path, d).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read().replace(d.encode(), b"<dir>"))
        return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", default="", help="run only the calls whose name contains this")
    args = parser.parse_args()
    for name, make_argv in calls():
        if args.only in name:
            print(f"{digest(make_argv)}  {name}", flush=True)


if __name__ == "__main__":
    main()
