"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload gcrdd_overlap --seed 1 \\
        --seconds 36 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/`` next to this directory.  With ``--trace 0`` the run is
untraced and reports the end-to-end metrics.  With ``--trace 1`` it
runs the workload untraced for half the time, then traced for the other
half, reports the per-layer metrics and writes the spans to
``.perfbench/trace-<workload>-<seed>.json`` (trace_event JSON, readable
by ``repro.trace.perfetto.load_chrome_trace`` and by Perfetto).

Each metric is printed as ``name = value unit`` on its own line, with
figures the benchmark reports but does not gate; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 1 when any output fails its correctness check, 2 when the
checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: name -> (unit, better) of the gated end-to-end metrics (untraced run).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("fraction", "higher"),
    "tts_p50_s": ("s", "lower"),
    "latency_p50_s.sparse": ("s", "lower"),
    "latency_p50_s.dense": ("s", "lower"),
    "burst_rps": ("req/s", "higher"),
}

PHASES = ("sparse", "dense", "burst")
_SERVE = {
    "queue_wait_p50_s": ("s", "lower"),
    "coalesce_wait_p50_s": ("s", "lower"),
    "batch_solve_p50_s": ("s", "lower"),
    "batches": ("count", "lower"),
    "occupancy_mean": ("req/batch", "higher"),
    "useful_lane_frac": ("fraction", "higher"),
    "wire_s": ("s", "lower"),
}

#: name -> (unit, better) of the per-layer metrics (traced run).
PER_LAYER = {
    "dirac.apply_calls": ("count/solve", "lower"),
    "dirac.apply_s": ("s/solve", "lower"),
    "dirac.us_per_site_lane": ("us", "lower"),
    "dirac.gflops_computed": ("GFlop/s", "higher"),
    "dirac.bytes_computed": ("B/solve", "lower"),
    "linalg.blas_calls": ("count/solve", "lower"),
    "linalg.blas_s": ("s/solve", "lower"),
    "linalg.reductions": ("count/solve", "lower"),
    "solvers.iterations": ("count/solve", "lower"),
    "solvers.matvecs": ("count/solve", "lower"),
    "solvers.self_s": ("s/solve", "lower"),
    "precond.block_solves": ("count/solve", "lower"),
    "precond.s": ("s/solve", "lower"),
    "precond.self_s": ("s/solve", "lower"),
    "precond.local_reductions": ("count/solve", "lower"),
    "multigpu.rank_apply_calls": ("count/solve", "lower"),
    "multigpu.rank_apply_self_s": ("s/solve", "lower"),
    "comm.messages": ("count/solve", "lower"),
    "comm.bytes": ("B/solve", "lower"),
    "comm.global_reductions": ("count/solve", "lower"),
    "comm.halo_busy_s": ("s/solve", "lower"),
    "core.self_s": ("s/solve", "lower"),
    "metrics.report_s": ("s/solve", "lower"),
    **{f"serve.{k}.{phase}": v for k, v in _SERVE.items() for phase in PHASES},
    "bench.unattributed_frac": ("fraction", "lower"),
    "bench.trace_overhead_frac": ("fraction", "lower"),
    "bench.generator_late_max_s": ("s", "lower"),
    "bench.backlog_end": ("count", "lower"),
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 \
        else _median(values)


def _slices(outcome, phase) -> list:
    """The slices of one phase, one per round of the run."""
    return [info for name, info in outcome.phases.items()
            if name.startswith(phase)]


def _serve_records(outcome, phase) -> list:
    """Records of every slice of one phase."""
    return [r for info in _slices(outcome, phase) for r in info["records"]]


def _batches(records) -> dict:
    """Lanes solved per batched solve, keyed by its wall time (every
    request a batch carried reports that batch's solve time)."""
    return {r["solve_s"]: r["lanes"] for r in records}


def end_to_end(outcome, notes: list) -> dict:
    """The gated metrics of an untraced pass (see ``END_TO_END``); the
    figures printed but not gated are appended to ``notes``."""
    from perfbench.workloads import SLO_SECONDS

    values = {
        "setup_s": _median(outcome.setup_s),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - outcome.failed / max(outcome.attempted, 1),
    }
    notes.append(("error_rate", outcome.failed / max(outcome.attempted, 1),
                  f"fraction, {outcome.failed} of {outcome.attempted}"))
    if outcome.phases:
        batches = [s for p in PHASES
                   for s in _batches(_serve_records(outcome, p))]
        values["tts_p50_s"] = _median(batches)
        notes.append(("tts_samples", len(batches), "batched solves"))
        for phase in ("sparse", "dense"):
            slices = _slices(outcome, phase)
            sent = sum(info["sent"] for info in slices)
            lat = [r["latency"] for r in _serve_records(outcome, phase)]
            values[f"latency_p50_s.{phase}"] = _median(lat)
            notes.append((f"latency_p90_s.{phase}", _p90(lat),
                          f"s, n={len(lat)}" + (
                              "" if len(lat) >= 100
                              else ", fewer than 10 samples beyond it")))
            within = sum(1 for x in lat if x <= SLO_SECONDS)
            notes.append((f"slo_frac.{phase}", within / max(sent, 1),
                          f"fraction within {SLO_SECONDS:g} s of "
                          f"{sent} sent"))
            notes.append((f"queue_depth_end.{phase}",
                          [info["depth_end"] for info in slices],
                          "requests, per round"))
            # Each slice starts with an empty queue; the backlog grows when,
            # on average over the rounds, it rises by more than one batch.
            growth = statistics.fmean(info["depth_growth"] for info in slices)
            notes.append((f"queue_growth.{phase}", round(growth, 2),
                          "requests, mean over rounds" + (
                              ", BACKLOG GROWING"
                              if growth > slices[0]["max_batch"] else "")))
        bursts = _slices(outcome, "burst")
        values["burst_rps"] = (sum(info["sent"] for info in bursts)
                               / sum(info["elapsed_s"] for info in bursts))
        notes.append(("burst_rps_each", [
            round(info["sent"] / info["elapsed_s"], 2) for info in bursts],
            "req/s"))
        notes.append(("generator_late_max_s",
                      max(p["late_max_s"] for p in outcome.phases.values()),
                      "s"))
    else:
        tts = outcome.tts_s
        values["tts_p50_s"] = _median(tts)
        # One client that issues each solve when the previous returned:
        # no request ever queues, so both load phases are the loop itself
        # and its completion rate is the drain rate of a backlog.
        values["latency_p50_s.sparse"] = values["tts_p50_s"]
        values["latency_p50_s.dense"] = values["tts_p50_s"]
        values["burst_rps"] = len(tts) / sum(tts)
        notes.append(("tts_samples", len(tts), "solves"))
    return values


def per_layer(outcome, recorder, baseline) -> dict:
    """The per-layer metrics of a traced pass (see ``PER_LAYER``);
    ``baseline`` is the untraced pass of the same run."""
    from perfbench.layers import layer_metrics

    values = layer_metrics(recorder)
    traced = end_to_end(outcome, [])["tts_p50_s"]
    untraced = end_to_end(baseline, [])["tts_p50_s"]
    values["bench.trace_overhead_frac"] = traced / untraced - 1.0
    values["bench.generator_late_max_s"] = max(
        (p["late_max_s"] for p in outcome.phases.values()), default=0.0)
    values["bench.backlog_end"] = max(
        (info["depth_end"] for p in ("sparse", "dense")
         for info in _slices(outcome, p)), default=0)
    for phase in PHASES:
        records = _serve_records(outcome, phase)
        batches = _batches(records)
        lanes = sum(batches.values())
        values.update({
            f"serve.queue_wait_p50_s.{phase}":
                _median([r["queue_s"] for r in records]),
            f"serve.coalesce_wait_p50_s.{phase}":
                _median([r["coalesce_s"] for r in records]),
            f"serve.batch_solve_p50_s.{phase}": _median(list(batches)),
            f"serve.batches.{phase}": len(batches),
            f"serve.occupancy_mean.{phase}":
                len(records) / len(batches) if batches else 0.0,
            f"serve.useful_lane_frac.{phase}":
                len(records) / lanes if lanes else 0.0,
            f"serve.wire_s.{phase}": _median([r["wire"] for r in records]),
        })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    print(f"workload {workload.name}: seed {args.seed}, "
          f"{args.seconds:g} s, cpu_count {os.cpu_count()}, working set "
          f"{workload.working_set_bytes() / 2**20:.1f} MiB (computed)")

    notes: list = []
    if args.trace:
        from perfbench.layers import install
        from perfbench.spans import Recorder
        from repro.trace.perfetto import write_chrome_trace

        # One problem per pass, so the two passes time the same solves.
        baseline = workload.run(args.seed, args.seconds / 2, setup_reps=1)
        recorder = Recorder()
        installed = install(recorder)
        try:
            outcome = workload.run(args.seed, args.seconds / 2, recorder,
                                   setup_reps=1)
        finally:
            installed.uninstall()
        metrics = per_layer(outcome, recorder, baseline)
        table = PER_LAYER
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = write_chrome_trace(
            out_dir / f"trace-{workload.name}-{args.seed}.json",
            recorder.trace_events())
        notes.append(("trace_file", str(path.relative_to(ROOT)), ""))
        att = recorder.attribution()
        busy = att["busy_s"] or 1.0
        notes.append(("traced_wall_s", round(recorder.wall_s, 4), "s"))
        notes.append(("busy_s", round(busy, 4), "thread-seconds, of which:"))
        for layer, own in sorted(att["layers"].items(), key=lambda i: -i[1]):
            notes.append((f"  {layer}", f"{100 * own / busy:.1f}", "%"))
        notes.append(("  unattributed",
                      f"{100 * att['unattributed_s'] / busy:.1f}", "%"))
        attempted = baseline.attempted + outcome.attempted
        failed = baseline.failed + outcome.failed
        problems = baseline.problems + outcome.problems
    else:
        outcome = workload.run(args.seed, args.seconds)
        metrics = end_to_end(outcome, notes)
        table = END_TO_END
        attempted, failed = outcome.attempted, outcome.failed
        problems = outcome.problems

    for name, (unit, _) in table.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for name, value, unit in notes:
        print(f"  {name} = {value} {unit}".rstrip())
    for problem in problems:
        print(f"FAILED: {problem}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # One BLAS thread: a second one spin-waits on the other CPU for no
    # gain on these vector sizes, and its wall time then follows
    # whatever else that CPU is running.  Set before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # The script's own directory would shadow stdlib modules; import the
    # benchmark as a package and the program from the checkout instead.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
