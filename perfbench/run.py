"""Benchmark entry point.

    python3 perfbench/run.py --workload suite|props --seed N \
        --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
`src/`.  Everything runs in this one process, single-threaded.

--trace 0 (end-to-end): PASSES passes over one seeded input, sized so that
they fill about --seconds, with no tracing.  Each pass sets up a fresh
catalog (`build_catalog`), so no pass runs on caches warmed by another.
`verdict_s` is the median pass and the latency quantiles are taken over
the items of all passes, so that no single slow spell of a shared host
sets a figure.  Prints every end-to-end metric with its unit.

--trace 1 (per layer): one untraced pass and one traced pass on the same
input; reports per-layer self time and calls, the layer counters, trace
coverage and the tracing overhead, and writes every span to .perfbench/.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Exit status 1 when an output is wrong, 2 when the
package cannot be found.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Items per second of --seconds, sized on a 2-core Xeon so that the
# PASSES passes of one run take about --seconds.  Each suite pass also
# runs the worked examples (~8 s), a fixed cost on top of its specs.
ITEMS_PER_SECOND = {"suite": 15, "props": 44}
PASSES = 3
SETUP_BUILDS = 4

UNITS = {"setup_s": "s", "verdict_s": "s", "items_per_s": "1/s", "p50_ms": "ms",
         "p90_ms": "ms", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(ITEMS_PER_SECOND))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def items_per_pass(workload: str, seconds: float) -> int:
    return max(2, round(ITEMS_PER_SECOND[workload] * seconds / PASSES))


class Pass:
    """Set up a fresh catalog, then prepare, run and check one workload pass."""

    def __init__(self, workload: str, seed: int, n: int, tracer=None):
        from amalgam import harness
        from workloads import WORKLOADS

        gc.collect()
        clock = time.perf_counter
        if tracer is not None:
            tracer.install()
        try:
            start = clock()
            catalog = harness.build_catalog()
            self.setup_s = clock() - start
            work = WORKLOADS[workload](catalog, seed, n)
            del catalog
            start = clock()
            work.run()
            self.verdict_s = clock() - start
        finally:
            if tracer is not None:
                tracer.restore()
        self.outcome = work.check()


def setup_only() -> float:
    from amalgam import harness

    gc.collect()
    start = time.perf_counter()
    harness.build_catalog()
    return time.perf_counter() - start


def end_to_end(args) -> tuple[dict, list, int, list]:
    n = items_per_pass(args.workload, args.seconds)
    setups = [setup_only() for _ in range(SETUP_BUILDS - PASSES)]
    passes = [Pass(args.workload, args.seed, n) for _ in range(PASSES)]
    setups += [r.setup_s for r in passes]
    verdict_s = statistics.median(r.verdict_s for r in passes)
    latencies = [t for r in passes for t in r.outcome.latencies_s]
    attempted = sum(r.outcome.attempted for r in passes)
    failed = sum(r.outcome.failed for r in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "verdict_s": verdict_s,
        "items_per_s": passes[0].outcome.attempted / verdict_s,
        "p50_ms": 1000 * statistics.median(latencies),
        "p90_ms": 1000 * statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - failed / attempted,
    }
    notes = [f"{n} items x {PASSES} passes, {len(setups)} setups, {len(latencies)} latency samples"]
    return {k: (v, UNITS[k]) for k, v in metrics.items()}, passes, n, notes


def per_layer(args) -> tuple[dict, list, int, list]:
    from spans import Tracer

    n = items_per_pass(args.workload, args.seconds)
    plain = Pass(args.workload, args.seed, n)
    tracer = Tracer()
    traced = Pass(args.workload, args.seed, n, tracer)
    traced_wall = traced.setup_s + traced.verdict_s
    summary = tracer.summary(traced_wall)
    summary["trace.overhead"] = traced_wall / (plain.setup_s + plain.verdict_s) - 1
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(span_file, traced.outcome.item_starts)
    metrics = {k: (v, "count" if k.endswith(".calls") else "s" if k.endswith("_s") else "ratio")
               for k, v in summary.items()}
    notes = [f"{n} items per pass; spans: {len(tracer.spans)} in {span_file.relative_to(ROOT)}"]
    return metrics, [plain, traced], n, notes


def check(workload: str, seed: int, n: int, passes: list) -> list[str]:
    from workloads import REFERENCE_FILE, reference_key

    problems = [p for r in passes for p in r.outcome.problems]
    digests = {r.outcome.digest for r in passes}
    if len(digests) != 1:
        problems.append(f"passes disagree on outputs: {sorted(digests)}")
    expected = json.loads(REFERENCE_FILE.read_text()).get(reference_key(workload, seed, n))
    if expected is not None and expected not in digests:
        problems.append(f"output digest {sorted(digests)} differs from the reference {expected}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "amalgam" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package at {ROOT / 'src' / 'amalgam'}; run from a checkout\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import amalgam

    if Path(amalgam.__file__).resolve().parent != ROOT / "src" / "amalgam":
        sys.stderr.write(f"error: imported amalgam from {amalgam.__file__}, not from this checkout\n")
        return 2
    metrics, passes, n, notes = (per_layer if args.trace else end_to_end)(args)
    problems = check(args.workload, args.seed, n, passes)
    attempted = sum(r.outcome.attempted for r in passes)
    failed = sum(r.outcome.failed for r in passes)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    print(f"  attempted={attempted} failed={failed} outputs_ok={not problems}")
    for p in problems[:20]:
        print(f"  WRONG: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
