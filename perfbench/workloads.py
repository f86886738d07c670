"""The benchmark's four workloads.

A workload writes its input files once (`write_inputs`, part of set-up),
then every round runs the same `wiretap` CLI calls on them.  Inputs depend
only on the seed.  `check` validates the outputs of a round with
`checks.py`; it returns failure messages, empty on success.
"""

from __future__ import annotations

import json
import os
from functools import cached_property

import numpy as np

import checks


class Workload:
    name = ""
    sizes: dict = {}

    def __init__(self, seed: int, workdir: str, **sizes):
        unknown = set(sizes) - set(self.sizes)
        if unknown:
            raise ValueError(f"{self.name}: unknown sizes {sorted(unknown)}")
        self.seed = seed
        self.workdir = workdir
        self.size = {**self.sizes, **sizes}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_json(self, name: str, obj) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def write_gallery(self, gallery: str) -> str:
        from wiretap.scenario import build_gallery, save_scenario

        path = self.path(f"{gallery}.json")
        save_scenario(build_gallery(gallery), path)
        return path

    def write_inputs(self) -> list[list[str]]:
        """Write the input files; return the argv of each CLI call in a round."""
        raise NotImplementedError

    def check(self, stdouts: list[str]) -> list[str]:
        raise NotImplementedError

    def dense_bytes(self, stdouts: list[str]) -> float:
        """Bytes of bin-averaged states that code-sim holds at once."""
        return 0.0


def last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


class RateOptimizeSuperdense(Workload):
    name = "rate-optimize-superdense"
    sizes = {"restarts": 2, "max_iters": 60}

    def write_inputs(self):
        scenario = self.write_gallery("superdense")
        config = self.write_json("optimizer.json", {"seed": self.seed, **self.size})
        return [["rate-optimize", "--scenario", scenario, "--mode", "theorem1",
                 "--config", config, "--out", self.path("out")]]

    def check(self, stdouts):
        return checks.check_rate_optimize_superdense(last_json(stdouts[0]))


class ResourceAnalyze3Qubit(Workload):
    name = "resource-analyze-3qubit"
    sizes = {"states": 2, "restarts": 3, "max_iters": 60}

    def random_states(self) -> list[np.ndarray]:
        gen = np.random.default_rng([self.seed, 3])
        out = []
        for _ in range(self.size["states"]):
            v = gen.standard_normal(8) + 1j * gen.standard_normal(8)
            out.append(v / np.linalg.norm(v))
        return out

    def write_inputs(self):
        config = self.write_json(
            "optimizer.json",
            {"seed": self.seed, "restarts": self.size["restarts"],
             "max_iters": self.size["max_iters"]},
        )
        self.states = self.random_states()
        calls = []
        for i, psi in enumerate(self.states):
            rho = np.outer(psi, psi.conj())
            state = self.write_json(
                f"state{i}.json",
                {"factors": [["A", 2], ["B", 2], ["C", 2]],
                 "matrix": [[[z.real, z.imag] for z in row] for row in rho.tolist()]},
            )
            calls.append(["resource-analyze", "--state", state, "--config", config])
        return calls

    def check(self, stdouts):
        bad = []
        for i, (psi, out) in enumerate(zip(self.states, stdouts)):
            bad += [f"state {i}: {m}" for m in checks.check_resource_analyze(psi, last_json(out))]
        return bad


class _CodeSim(Workload):
    gallery = ""
    diagonal = False
    side_dim = 1  # largest one-letter dimension among Bob, Eve and the signal

    def config(self) -> dict:
        raise NotImplementedError

    def write_inputs(self):
        scenario = self.write_gallery(self.gallery)
        config = self.write_json("codesim.json", {"seed": self.seed, **self.config()})
        return [["code-sim", "--scenario", scenario, "--config", config,
                 "--format", "json", "--out", self.path("out")]]

    def trials(self) -> list[dict]:
        with open(self.path(os.path.join("out", "codesim_trials.json"))) as fh:
            return json.load(fh)

    def dense_bytes(self, stdouts):
        held = []
        for row in last_json(stdouts[0]):
            d = self.side_dim ** row["n"]
            held.append(row["M"] * d * 8 if self.diagonal else row["M"] * d * d * 16)
        return float(max(held))


class CodesimDenseN4(_CodeSim):
    name = "codesim-dense-n4"
    sizes = {"n": 4, "rate": 1.25, "epsilon": 0.1, "trials": 1}
    gallery = "superdense"
    side_dim = 4

    def config(self):
        return {"n": [self.size["n"]], "rate": self.size["rate"],
                "epsilon": self.size["epsilon"], "trials": self.size["trials"]}

    def check(self, stdouts):
        return checks.check_codesim_superdense(
            last_json(stdouts[0]), self.trials(), self.size["n"], self.size["rate"],
            self.size["epsilon"])


class CodesimDiagN10(_CodeSim):
    name = "codesim-diag-n10"
    sizes = {"n": (2, 4, 6, 8, 10), "epsilon": 0.1, "trials": 10, "rate_share": 0.8}
    gallery = "classical"
    diagonal = True
    side_dim = 2
    exact_n = (2, 4)  # block lengths whose leakage expectation is enumerated

    def rate(self) -> float:
        return self.size["rate_share"] * checks.classical_rates()[0]

    def config(self):
        return {"n": list(self.size["n"]), "rate": self.rate(),
                "epsilon": self.size["epsilon"], "trials": self.size["trials"]}

    @cached_property
    def expectations(self) -> dict:
        """Exact (mean, variance) of one random bin's leakage, per n in exact_n."""
        _, i_ue = checks.classical_rates()
        return {
            n: checks.random_bin_leakage(
                n, checks.round_half_up(2.0 ** (n * (i_ue + self.size["epsilon"]))))
            for n in self.exact_n if n in self.size["n"]
        }

    def check(self, stdouts):
        return checks.check_codesim_classical(
            last_json(stdouts[0]), self.trials(), list(self.size["n"]), self.rate(),
            self.size["epsilon"], self.expectations)


WORKLOADS = {
    w.name: w
    for w in (RateOptimizeSuperdense, ResourceAnalyze3Qubit, CodesimDenseN4, CodesimDiagN10)
}
