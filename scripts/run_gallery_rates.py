#!/usr/bin/env python3
"""Evaluate every bundled gallery scenario in each applicable mode."""

import argparse

from wiretap.rates import theorem1_rate, trivial_rate, unassisted_rate
from wiretap.scenario import build_gallery, gallery_names


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()
    print(f"{'gallery':<16}{'mode':<12}{'rate':>12}{'I(U:BB)':>12}{'I(U:EE)':>12}{'I(U:A)':>12}")
    for name in gallery_names():
        sc = build_gallery(name)
        res = sc.resource_state()
        rows = []
        if sc.ensemble is not None:
            rows.append(("theorem1", theorem1_rate(sc.ensemble, sc.channel, res)))
        if sc.modulations is not None:
            rows.append(
                (
                    "trivial",
                    trivial_rate(sc.modulation_distribution(), sc.modulations, sc.channel, res),
                )
            )
        if sc.ensemble is not None and res.zeta.space.dims == (1, 1, 1):
            rows.append(("unassisted", unassisted_rate(sc.ensemble, sc.channel)))
        if not rows:
            print(f"{name:<16}{'(no signal data bundled)':<12}")
        for mode, rep in rows:
            print(
                f"{name:<16}{mode:<12}{rep.rate:>12.6f}{rep.i_u_bb:>12.6f}"
                f"{rep.i_u_ee:>12.6f}{rep.i_u_aprime:>12.6f}"
            )


if __name__ == "__main__":
    main()
