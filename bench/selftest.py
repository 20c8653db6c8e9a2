"""Self-test of the benchmark at tiny sizes (about a minute):

    python3 bench/selftest.py

Checks that every workload passes its verdict checks and emits every
end-to-end metric untraced and every per-layer metric traced, that two
traced runs give identical counts, and that changing one expected verdict
of the incompleteness workload trips the gate.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import copy
import json
import sys

import run
from workloads import EXPECTED_DIR, Incompleteness

WORKLOADS = ("incompleteness", "colouring", "cli_mix")


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


def main() -> int:
    for name in WORKLOADS:
        workload = run.make_workload(name, tiny=True, budget=20_000)
        plain = run.run(workload, seed=1, seconds=0.1, trace=False)
        check(plain["correct"], f"{name}: verdict checks failed untraced")
        check(set(plain["metrics"]) == {m for m, _ in run.END_TO_END},
              f"{name}: end-to-end metric names differ")
        traced = [run.run(workload, seed=1, seconds=0.1, trace=True)
                  for _ in range(2)]
        check(all(t["correct"] for t in traced), f"{name}: traced run failed")
        check(set(traced[0]["metrics"]) == {m for m, _ in run.PER_LAYER},
              f"{name}: per-layer metric names differ")
        check(counts(traced[0]) == counts(traced[1]),
              f"{name}: counts differ between two traced runs")

    expected = json.loads((EXPECTED_DIR / "incompleteness.json").read_text())
    flipped = copy.deepcopy(expected)
    flipped["6"]["derives"][0] = "Derivable"
    gated = run.run(Incompleteness(tiny=True, expected=flipped), seed=1,
                    seconds=0.1, trace=False)
    check(not gated["correct"] and gated["failed"] == 1,
          "a changed expected verdict did not trip the gate")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
