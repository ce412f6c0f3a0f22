"""Served-workload benchmark for the query service.

Run from the repository root:

    python3 perfbench/run.py --workload panel-2k --seed 1 --seconds 25 --trace 0

``--trace 0`` serves the workload untraced and reports the end-to-end
metrics; ``--trace 1`` serves it untraced and then traced, checks the
two agree bit for bit, and reports the per-layer metrics.  Human-
readable tables go first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every run appends
its numbers to ``perfbench/history.jsonl``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"



def declared(key: str):
    """(name, unit) of every metric BENCHMARK.json lists under ``key``
    (``end_to_end`` or ``per_layer``): the metrics the JSON line carries."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple((m["name"], m["unit"]) for m in spec[key])


def use_sources() -> bool:
    """Put the program's sources and the benchmark on ``sys.path``;
    False when the checkout has no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def stop_children(timeout_s: float = 10.0) -> None:
    """Stop every process this run started and wait for each to end.

    Shard workers are reaped by ``QueryService.close``; any still alive
    (only after a failure) are terminated here.  Shared memory also
    starts multiprocessing's resource tracker, which would otherwise
    outlive the run until it notices the exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout_s)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def child_pids() -> list:
    """Pids of the live processes whose parent is this one."""
    me = str(os.getpid())
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            pids.append(int(stat.parent.name))
    return pids


def tail(latencies):
    """The highest percentile with at least ten samples beyond it.

    Below 21 samples no percentile above the median has ten beyond it;
    the median is reported then.  Returns (value, percentile, samples
    beyond it)."""
    ordered = sorted(latencies)
    index = max((len(ordered) - 1) // 2, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def untraced_pass(workload, network, seed, seconds, run_dir):
    import spans
    from workloads import QueryStream, serve, timed_setup

    def drop_workers():
        spans.collect_workers(run_dir)

    spans.install(run_dir, spans_on=False)
    try:
        deployment, setup_times = timed_setup(workload, network, seed, drop_workers)
        try:
            result = serve(workload, deployment, QueryStream(workload, seed), seconds)
        finally:
            deployment.service.close()
        workers = spans.collect_workers(run_dir)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + sum(
            table["maxrss_kb"] for table in workers
        )
        spare, more = timed_setup(workload, network, seed, drop_workers)
        spare.service.close()
        drop_workers()
    finally:
        spans.uninstall()
    return result, setup_times + more, rss_kb


def traced_pass(workload, network, seed, seconds, run_dir):
    import spans
    from workloads import QueryStream, deploy, serve

    spans.install(run_dir, spans_on=True)
    try:
        deployment = deploy(workload, network, seed, measure_transport=True)
        try:
            result = serve(workload, deployment, QueryStream(workload, seed), seconds)
            if workload.workers:
                result.transport = deployment.service.backend.transport_stats()
        finally:
            deployment.service.close()
        workers = spans.collect_workers(run_dir)
        parent = spans.RECORDER.table()
    finally:
        spans.uninstall()
    return result, parent, workers


def run(workload, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the record run.py prints and keeps."""
    import quality
    from inputs import load_network
    from workloads import median, replay_inline, replay_prefix

    run_dir = HERE / ".run" / f"{workload.name}-{seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        network = load_network(workload.network)
        result, setup_times, rss_kb = untraced_pass(
            workload, network, seed, seconds, run_dir
        )
        problems = quality.check_answers(result.answers)
        if workload.churn:
            if result.refused:
                problems.append(f"{result.refused} refused submissions")
            # Untraced runs replay the epochs of the quality panel; traced
            # runs replay everything.
            checked = result.answers if trace else replay_prefix(
                result.answers, workload.quality_queries
            )
            replayed = replay_inline(workload, network, seed, checked)
            problems += quality.compare_replay(checked, replayed)
        traced = None
        if trace:
            traced = traced_pass(workload, network, seed, seconds, run_dir)
            problems += quality.check_answers(traced[0].answers)
            problems += quality.compare_runs(result.answers, traced[0].answers)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    answers = result.answers
    done = [a for a in answers if a.outcome is not None and a.outcome.status == "done"]
    attempted = len(answers) + result.refused
    failed = attempted - len(done)
    latencies = [a.latency_ms for a in answers if a.outcome is not None]
    tail_ms, tail_pct, tail_beyond = tail(latencies)
    qps = len(done) / result.serve_s
    end_to_end = {
        "setup_s": median(setup_times),
        "throughput_qps": qps,
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": tail_ms,
        "failed_share": failed / attempted,
        "refresh_p50_ms": median(result.refresh_ms) if workload.churn else None,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    measured = quality.quality_metrics(answers, result.exact, workload.quality_queries)
    if traced is not None:
        import layers

        names = [name for name, _ in declared("per_layer")]
        per_layer, serve_self_ms, more = layers.layer_metrics(
            traced[1], traced[2], traced[0], qps, names
        )
        problems += more
    record = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "inputs": {
            "digest": network.digest,
            "source": network.source,
            "generate_s": network.generate_s,
            "load_s": network.load_s,
        },
        "setup_runs_s": setup_times,
        "serve_s": result.serve_s,
        "queries_done": len(done),
        "stream_exhausted": result.exhausted,
        "tail": {"percentile": tail_pct, "samples": len(latencies), "beyond": tail_beyond},
        "end_to_end": {**end_to_end, **measured},
    }
    if traced is not None:
        record["per_layer"] = per_layer
        record["serve_self_ms"] = serve_self_ms
    return record


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

#: End-to-end metrics printed (and kept in the history) beside the ones
#: BENCHMARK.json lists, which the JSON line carries.
E2E_EXTRAS = {"failed_share": "ratio", "refresh_p50_ms": "ms"}


def e2e_units():
    """Every end-to-end metric and its unit, the listed ones first."""
    units = dict(declared("end_to_end"))
    for name, unit in E2E_EXTRAS.items():
        units.setdefault(name, unit)
    return units


def report(workload, seed: int, seconds: float, trace: int, record: dict) -> None:
    inputs = record["inputs"]
    print(f"workload {workload.name}  seed {seed}  seconds {seconds:g}  trace {trace}")
    how = "generated" if inputs["source"] == "generated" else "cached"
    print(
        f"inputs   {how}: generation {inputs['generate_s']:.2f} s, load "
        f"{inputs['load_s']:.2f} s, digest {inputs['digest'][:16]} (excluded from metrics)"
    )
    print(
        f"served   {record['queries_done']} queries in {record['serve_s']:.2f} s; "
        f"{len(record['setup_runs_s'])} set-ups"
    )
    print("end-to-end (untraced)")
    e2e = record["end_to_end"]
    gated = dict(declared("end_to_end"))
    for name, unit in e2e_units().items():
        value = e2e[name]
        note = ""
        if name == "latency_tail_ms":
            t = record["tail"]
            note = f"p{t['percentile']:.1f} of {t['samples']}, {t['beyond']} beyond"
        elif name == "setup_s":
            note = "median of set-ups"
        elif name in ("relative_error_mean", "interval_score_rel",
                      "peers_visited_per_query", "hops_per_query"):
            note = f"first {e2e['quality_answers']} answers"
        shown = "n/a (no churn)" if value is None else f"{value:.6g}"
        mark = "" if name in gated else "  (not gated)"
        print(f"  {name:26s} {shown:>16s} {unit:6s} {note}{mark}")
    if "per_layer" in record:
        print("per-layer (traced)")
        for name, unit in declared("per_layer"):
            print(f"  {name:34s} {record['per_layer'][name]:>14.6g} {unit}")
        print("client self time in the serve window, by span (ms)")
        for name, ms in sorted(record["serve_self_ms"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:34s} {ms:>14.6g}")
    status = "ok" if record["correct"] else "FAILED: " + "; ".join(record["problems"])
    print(f"checks   {status}")


def result_line(record: dict, trace: int) -> str:
    key = "per_layer" if trace else "end_to_end"
    metrics = {
        name: {"value": record[key][name], "unit": unit} for name, unit in declared(key)
    }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not use_sources():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2

    if args.generate:
        from inputs import NetworkParams, generate

        generate(NetworkParams(**json.loads(args.generate)))
        return 0

    import history
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    try:
        record = run(workload, args.seed, args.seconds, args.trace)
    finally:
        stop_children()
    report(workload, args.seed, args.seconds, args.trace, record)
    history.append(workload, args.seed, args.seconds, args.trace, record)
    print(result_line(record, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
