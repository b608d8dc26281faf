#!/usr/bin/env python3
"""Pinning deep-dive (§6): anchors, co-presence rules, and their knobs.

Runs the study once, then:

* prints the anchor census (Table 3) and coverage;
* sweeps the Rule-2 RTT threshold around the paper's 2 ms knee and shows
  the precision/coverage trade-off (design decision D3 in DESIGN.md);
* shows the effect of dropping anchor-consistency filtering (D2) via
  cross-validation precision;
* finally scores the pins against ground truth -- the comparison the
  paper's authors had no way to make.

Run:  python examples/pinning_study.py
"""

import time

from repro import AmazonPeeringStudy, StudyConfig, WorldConfig, build_world
from repro.core.crossval import cross_validate_pinning
from repro.core.pinning import IterativePinner
from repro.core.evaluation import evaluate_study


def main() -> None:
    t0 = time.time()
    world = build_world(WorldConfig(scale=0.05, seed=17))
    config = StudyConfig(seed=17, expansion_stride=4, run_vpi=False)
    study = AmazonPeeringStudy(world, config)
    result = study.run()
    print(f"study finished in {time.time() - t0:.1f}s\n")

    anchors = result.anchors
    print("anchor census (Table 3, exclusive attribution):")
    for name, count in anchors.exclusive_counts().items():
        print(f"  {name:>7}: {count}")
    print(f"  flagged inconsistent: "
          f"{len(anchors.flagged_multi_evidence) + len(anchors.flagged_alias)}")
    print(f"  DNS hints failing the RTT-feasibility check: {anchors.dns_rtt_excluded}")
    universe = result.abis | result.cbis
    print(f"\nmetro coverage {result.metro_pin_coverage * 100:.1f}% of "
          f"{len(universe)} border interfaces "
          f"(+regional fallback -> {result.total_pin_coverage * 100:.1f}%)")

    # --- D3: the 2 ms co-presence threshold -------------------------------
    print("\nRule-2 threshold sweep (paper uses the 2 ms knee of Fig. 4b):")
    print(f"{'threshold':>10} {'coverage':>9} {'cv precision':>13} {'cv recall':>10}")
    for threshold in (0.5, 1.0, 2.0, 4.0, 8.0):
        pinner = IterativePinner(
            anchors.anchors,
            result.alias_sets,
            result.final_segments,
            result.segment_rtt_diff,
            threshold_ms=threshold,
        )
        pins = pinner.run()
        coverage = pins.coverage(universe)
        cv = cross_validate_pinning(
            anchors.anchors,
            result.alias_sets,
            result.final_segments,
            {k: v for k, v in result.segment_rtt_diff.items() if v < threshold},
            folds=3,
            seed=17,
        )
        print(
            f"{threshold:>9.1f}ms {coverage * 100:>8.1f}% "
            f"{cv.mean_precision * 100:>12.1f}% {cv.mean_recall * 100:>9.1f}%"
        )
    print("Widening the threshold buys coverage and erodes precision -- the")
    print("knee is where remote peerings start being mistaken for local ones.")

    # --- ground truth ------------------------------------------------------
    ev = evaluate_study(world, result)
    print(f"\nground-truth pinning accuracy: {ev.pinning.accuracy * 100:.1f}% "
          f"over {ev.pinning.evaluated} pinned interfaces")
    print("(anchor-based cross-validation over-estimates accuracy because")
    print(" anchors sit where evidence is dense; remote peerings pinned to the")
    print(" fabric metro rather than the true router metro are invisible to it.)")


if __name__ == "__main__":
    main()
