"""Self-test of the benchmark at tiny scale (~30 s).

    python3 perfbench/selftest.py

Runs all three workloads traced (so each also runs untraced) on small
networks and asserts that:

* every named end-to-end and per-layer metric is emitted with its unit,
  and the JSON result line carries exactly the metrics BENCHMARK.json
  lists;
* the reported layers plus unattributed reconcile to the serve wall
  clock, and the reconciliation notices a layer left unreported;
* the output checks pass: sound answers, traced == untraced answers, and
  the sharded churn run equal to its inline replay;
* a cached network loads bit-identical to fresh generation;
* ``/dev/shm`` holds exactly the same entries after the sharded workload
  as before it.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

import run

TINY = {
    "panel-2k": (300, 1_500, 30_000, 40),
    "adhoc-200k": (600, 3_000, 60_000, 6),
    "churn-sharded-2k": (300, 1_500, 30_000, 48),
}


def _shm() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def main() -> int:
    if not run.use_sources():
        print("selftest: the program's sources are missing", file=sys.stderr)
        return 1
    import inputs
    import layers
    from workloads import WORKLOADS

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)
            print(f"  FAIL {message}")

    for name, (peers, edges, tuples, quality) in TINY.items():
        workload = WORKLOADS[name].scaled(peers, edges, tuples, quality)
        print(f"{name} at {peers} peers")
        shm_before = _shm()
        try:
            record = run.run(workload, seed=5, seconds=1.0, trace=1)
        finally:
            run.stop_children()
        check(not run.child_pids(), f"{name}: processes left running {run.child_pids()}")
        if workload.workers:
            check(_shm() == shm_before, f"{name}: /dev/shm changed by the run")
        check(record["correct"], f"{name}: output checks failed {record['problems']}")
        e2e = record["end_to_end"]
        for metric in run.e2e_units():
            check(metric in e2e, f"{name}: end-to-end metric {metric} missing")
            if metric == "refresh_p50_ms" and not workload.churn:
                continue
            check(isinstance(e2e.get(metric), (int, float)), f"{name}: {metric} not a number")
        for metric, _unit in run.declared("per_layer"):
            check(metric in record["per_layer"], f"{name}: per-layer metric {metric} missing")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            line = json.loads(run.result_line(record, trace))
            check(
                set(line) == {"correct", "attempted", "failed", "metrics"},
                f"{name}: result line keys {sorted(line)}",
            )
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(got == want, f"{name}: --trace {trace} metrics differ from BENCHMARK.json")
        per_layer = record["per_layer"]
        check(
            per_layer["reconcile_error"] < layers.RECONCILE_TOLERANCE,
            f"{name}: layers do not reconcile to serve time",
        )
        # The reconciliation must notice a serve-window layer that no
        # metric reports: drop one and it has to come up short.
        names = [m for m, _ in run.declared("per_layer") if m != "service.tick.self_ms"]
        serve_ms = per_layer["serve_ms"]
        error, uncovered = layers.reconcile(
            record["serve_self_ms"], per_layer["unattributed_share"] * serve_ms,
            serve_ms, names,
        )
        tick_share = record["serve_self_ms"]["service.tick"] / serve_ms
        check(
            uncovered == ["service.tick"] and abs(error - tick_share) < 1e-6,
            f"{name}: reconciliation misses an unreported layer ({uncovered}, {error})",
        )

        params = workload.network
        entry = inputs.CACHE_DIR / f"{params.key()}.npz"
        cached = inputs.load_network(params)
        entry.unlink()
        fresh = inputs.load_network(params)
        check(
            fresh.source == "generated" and cached.digest == fresh.digest,
            f"{name}: cached inputs differ from fresh generation",
        )

    print("selftest", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
