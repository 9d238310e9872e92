#!/usr/bin/env python3
"""Compare two BENCH_micro.json files and fail on gated-row regressions.

Used by the CI bench-perf job: the previous successful run's BENCH_micro
artifact is the baseline, and the gated bench_micro_warmpath row -- the
observability overhead (armed/disarmed time on the 5T OTA warm sample
path) -- fails the job when it rises more than the threshold against it.

Usage: compare_bench.py BASELINE.json CURRENT.json [--threshold 0.20]
"""

import argparse
import json
import sys

SECTION = "bench_micro_warmpath"


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="fractional rise that counts as a regression (default 0.20)",
    )
    args = parser.parse_args()

    base = load(args.baseline).get(SECTION)
    cur = load(args.current).get(SECTION)
    if base is None:
        print(f"baseline has no {SECTION} section; skipping regression check")
        return 0
    if cur is None:
        print(f"current run has no {SECTION} section; nothing to check",
              file=sys.stderr)
        return 1

    regressions = []

    def check_lower_is_better(label, old, new):
        # Ratio rows like the observability overhead, where an INCREASE is
        # the regression direction.
        if old is None or new is None or old <= 0:
            return
        rise = new / old - 1.0
        marker = " REGRESSION" if rise > args.threshold else ""
        print(f"  {label:28s} {old:10.4f} -> {new:10.4f}  "
              f"({rise * 100.0:+.1f}%){marker}")
        if rise > args.threshold:
            regressions.append(label)

    print(f"gated rows, threshold {args.threshold * 100.0:.0f}% "
          f"(baseline -> current):")
    check_lower_is_better("obs overhead (armed)", base.get("obs_overhead"),
                          cur.get("obs_overhead"))

    if regressions:
        print(
            f"FAIL: {len(regressions)} gated row(s) regressed more than "
            f"{args.threshold * 100.0:.0f}%: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    print("no gated-row regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
