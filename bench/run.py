"""Run one pgmkit benchmark workload and print its metrics.

    python3 bench/run.py --workload chain-exact --seed 1 --seconds 15 --trace 0

The workload runs in this fresh process, as a closed loop with a single
caller: one request at a time. Set-up is timed in fresh child processes.
After one warm-up request, requests run until ``--seconds`` of request
time have passed (and at least ``MIN_REQUESTS`` have run). Every
successful call is then checked against the workload's references; a
wrong answer counts as a failed call and is named in the output.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` requests alternate
between untraced and traced, and the metrics are the per-layer ones, each
the median over traced requests of its per-request value.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCES = ROOT / "src"

MIN_REQUESTS = 6          # per run, and per traced half of a traced run
MAX_REQUESTS = 39         # a run holds fewer than 40 requests
SETUP_PROBES = 3

# A single caller: keep numpy's BLAS to one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Per-layer metrics: traced self times and call counts, plus counters.
PER_LAYER = [
    "cli.main.self_ms", "io.parse_model.self_ms", "io.load_dataset.self_ms",
    "factors.Factor.calls", "factors.product.calls", "factors.reduce_factor.self_ms",
    "factors.Factor.self_ms", "factors.product.self_ms", "factors.eliminate.self_ms",
    "factors.align_to.self_ms", "factors.entries_written",
    "graphs.triangulate.self_ms", "graphs.max_cliques.self_ms",
    "graphs.max_weight_spanning_tree.self_ms",
    "models.FactorGraph.neighbors_of_variable.calls",
    "models.FactorGraph.neighbors_of_variable.self_ms", "models.log_joint.self_ms",
    "exact.choose_ordering.self_ms", "exact.tree_bp.self_ms",
    "exact.build_junction_tree.self_ms", "exact.running_intersection_holds.self_ms",
    "exact.max_product_decode.self_ms", "exact.variable_elimination.self_ms",
    "exact.jt_calibrate.self_ms", "exact.variable_elimination.max_scope",
    "exact.jt.max_clique_entries", "exact.tree_bp.sends",
    "exact.build_junction_tree.calls", "exact.tree_bp.calls",
    "sampling.gibbs.self_ms", "sampling.gibbs.ns_per_site_update",
    "variational.loopy_bp.self_ms", "variational.mean_field.self_ms",
    "variational.elbo.calls", "variational.loopy_bp.iterations",
    "mapinf.local_search_map.self_ms", "mapinf.simulated_annealing_map.self_ms",
    "mapinf.dual_decomposition.self_ms",
    "learning.counts.calls", "learning.counts.self_ms", "learning.ci_test.calls",
    "learning.hill_climb.self_ms", "learning.pc.self_ms", "learning.chow_liu.self_ms",
    "learning.mle_bn.self_ms", "learning.fit_mrf.self_ms",
    "learning.crf_log_likelihood.self_ms",
]


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ns_per_site_update"):
        return "ns"
    if name.endswith("entries_written") or name.endswith("max_clique_entries"):
        return "entries"
    return "count"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(files: list[str]) -> list[dict]:
    """Time set-up in fresh processes: import pgmkit, then load the inputs."""
    env = dict(os.environ, PYTHONPATH=str(SOURCES))
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), *files],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def run_request(request) -> tuple[float, list]:
    """Run every call of one request; returns wall seconds and per-call
    ``(output, error)`` pairs. A call that raises or exits non-zero failed."""
    results = []
    start = time.perf_counter()
    for call in request.calls:
        try:
            results.append((call.run(), None))
        except (Exception, SystemExit) as exc:  # the call failed; record why and go on
            results.append((None, f"{type(exc).__name__}: {exc}"))
    return time.perf_counter() - start, results


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "pgmkit" / "__init__.py").is_file():
        print(f"error: pgmkit sources not found under {SOURCES}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCES), str(BENCH)]
    import pgmkit
    import pgmkit.cli  # noqa: F401  (the CLI module is loaded before timing)

    if Path(pgmkit.__file__).resolve().parent != SOURCES / "pgmkit":
        print(f"error: imported pgmkit from {pgmkit.__file__}, not {SOURCES}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup = probe_setup(workload.model_files())

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    run_request(workload.request(0))       # warm-up, not counted
    records = []                           # (request, seconds, results, traced)
    elapsed = 0.0
    for i in range(1, MAX_REQUESTS + 1):
        counted = sum(1 for r in records if r[3] == (tracer is not None))
        if elapsed >= args.seconds and counted >= MIN_REQUESTS:
            break
        traced = tracer is not None and i % 2 == 0
        request = workload.request(i)
        if traced:
            tracer.install(i)
        try:
            seconds, results = run_request(request)
        finally:
            if traced:
                tracer.uninstall()
        records.append((request, seconds, results, traced))
        elapsed += seconds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks_started = time.perf_counter()
    attempted = failed = wrong = 0
    failures: Counter = Counter()
    for request, _, results, _ in records:
        for call, (out, error) in zip(request.calls, results):
            attempted += 1
            if error is None:
                try:
                    error = workload.check_call(request, call, out)
                except Exception as exc:  # an answer the check cannot read is wrong
                    error = f"unreadable answer ({type(exc).__name__}: {exc})"
                if error is not None:
                    wrong += 1
                    error = "wrong answer: " + error
            if error is not None:
                failed += 1
                failures[(call.name, error.splitlines()[0][:200])] += 1
    for (name, error), count in sorted(failures.items()):
        print(f"failed call: {args.workload} {name} x{count}: {error}")
    checks_took = time.perf_counter() - checks_started

    untraced = [s for _, s, _, t in records if not t]
    if tracer is None:
        metrics = {
            "setup_s": (median([s["import_s"] + s["load_s"] for s in setup]), "s"),
            "calls_per_s": ((attempted - failed) / elapsed, "calls/s"),
            "request_p50_ms": (1000 * median(untraced), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, records, setup, untraced)
        tracer.save(workdir / "trace.npz")
    print(f"{args.workload}: {len(records)} requests, {elapsed:.2f} s of request time, "
          f"{attempted} calls, {failed} failed ({wrong} wrong answers), "
          f"checks took {checks_took:.2f} s")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, records, setup, untraced) -> dict:
    """Per-layer metrics: each the median over traced requests of its
    per-request value. Counts come from the first ``MIN_REQUESTS`` traced
    requests, whose inputs depend only on the seed, so they repeat exactly."""
    rows = tracer.per_request()
    traced_ids = [request.index for request, _, _, t in records if t]
    per_request = [rows.get(i, {}) for i in traced_ids]
    for row in per_request:
        updates = row.get("sampling.gibbs.site_updates", 0)
        row["sampling.gibbs.ns_per_site_update"] = (
            row.get("sampling.gibbs.self_ms", 0.0) * 1e6 / updates if updates else 0.0)
    traced_ms = 1000 * median([s for _, s, _, t in records if t])
    untraced_ms = 1000 * median(untraced)
    metrics = {
        "setup.import_ms": (1000 * median([s["import_s"] for s in setup]), "ms"),
        "trace.request_p50_ms": (traced_ms, "ms"),
        "trace.untraced_request_p50_ms": (untraced_ms, "ms"),
        "trace.overhead_ms": (traced_ms - untraced_ms, "ms"),
    }
    for name in PER_LAYER:
        unit = unit_of(name)
        rows_used = per_request if unit in ("ms", "ns") else per_request[:MIN_REQUESTS]
        metrics[name] = (median([row.get(name, 0) for row in rows_used]), unit)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
