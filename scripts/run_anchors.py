#!/usr/bin/env python3
"""Known-answer anchors of the ensemble searches: target, value found, gap, seconds.

Amplitude damping with gamma <= 1/2 is degradable, so its private capacity
is max_p h((1 - gamma) p) - h(gamma p) (Smith, PRA 78, 022306, 2008); the
unassisted search should reach it.  On the classical gallery with a shared
key, perfect or copied to Eve through a BSC(q), the theorem1 search should
reach 1 - h(0.05): the capacity of Bob's BSC(0.05), which also bounds
I(U:BB') = I(U:B|B') from above.  The gap is the target minus the value.
"""

import argparse
import time

import numpy as np

from wiretap.channels import QuantumChannel
from wiretap.optimize import OptimizerConfig, optimize_theorem1, optimize_unassisted
from wiretap.qcore import LabeledSpace
from wiretap.scenario import correlated_bits_pmf, gallery_classical


def binary_entropy(x: float) -> float:
    return float(-sum(t * np.log2(t) for t in (x, 1.0 - x) if t > 0))


def amplitude_damping_wiretap(gamma: float) -> QuantumChannel:
    """The isometry |0> -> |00>_BE, |1> -> sqrt(1 - gamma)|10>_BE + sqrt(gamma)|01>_BE."""
    v = np.zeros((4, 2), dtype=complex)
    v[0, 0] = 1.0
    v[2, 1] = np.sqrt(1.0 - gamma)
    v[1, 1] = np.sqrt(gamma)
    return QuantumChannel(LabeledSpace.of(("A", 2)), LabeledSpace.of(("B", 2), ("E", 2)), [v])


def damping_capacity(gamma: float) -> float:
    """max_p h((1 - gamma) p) - h(gamma p), by a grid scan and a ternary search."""

    def f(p: float) -> float:
        return binary_entropy((1.0 - gamma) * p) - binary_entropy(gamma * p)

    grid = np.linspace(0.0, 1.0, 1001)
    i = int(np.argmax([f(p) for p in grid]))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    for _ in range(100):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        lo, hi = (m1, hi) if f(m1) < f(m2) else (lo, m2)
    return f(0.5 * (lo + hi))


def anchors():
    """(name, target, search) triples; search maps a config to the value found."""
    for gamma in (0.1, 0.3, 0.45):
        ch = amplitude_damping_wiretap(gamma)
        yield (
            f"damping gamma={gamma}",
            damping_capacity(gamma),
            lambda cfg, ch=ch: optimize_unassisted(ch, cfg).best_value,
        )
    key_bound = 1.0 - binary_entropy(0.05)
    for name, pmf in (
        ("perfect key", correlated_bits_pmf()),
        ("noisy key q=0.1", correlated_bits_pmf(0.1)),
        ("noisy key q=0.3", correlated_bits_pmf(0.3)),
    ):
        sc = gallery_classical(pmf)
        yield (
            name,
            key_bound,
            lambda cfg, sc=sc: optimize_theorem1(sc.channel, sc.resource_state(), cfg).best_value,
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)
    parser.add_argument("--max-iters", type=int, default=OptimizerConfig.max_iters)
    args = parser.parse_args()

    cfg = OptimizerConfig(seed=args.seed, restarts=args.restarts, max_iters=args.max_iters)
    print(f"{'anchor':<20}{'target':>14}{'found':>14}{'gap':>12}{'seconds':>10}")
    for name, target, search in anchors():
        start = time.perf_counter()
        found = search(cfg)
        seconds = time.perf_counter() - start
        print(f"{name:<20}{target:>14.9f}{found:>14.9f}{target - found:>12.2e}{seconds:>10.2f}")


if __name__ == "__main__":
    main()
