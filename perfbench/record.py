"""Record the benchmark's frozen inputs and reference outputs.

    python3 perfbench/record.py labels             # writes labels.tsv
    python3 perfbench/record.py costs              # writes costs.tsv
    python3 perfbench/record.py reference 0 10     # adds seeds 0..10 to reference.json

labels.tsv is the props input list: every catalog ring label and instance
label as the package prints them, with the ring size, the outcome of a
props request (`ok` or the error it raises) and the digest of its
property report.  Labels that do not re-parse get
the digest of the report on the catalog's own ring, so a later parser fix
is checked rather than flagged.

costs.tsv holds the cost of every props label and every suite spec, the
least of a few timings, for the workloads' cost-stratified samples.  Only
the order of the costs matters, so it need not be rerun on another machine.

reference.json maps `workload:seed:n` to the output digest of the suite
workload at the pass size run.py uses with --seconds 45 (every pass of
the end-to-end run and both passes of the traced run have that size).  Run
this only on a commit whose outputs are known to be right.
"""
from __future__ import annotations

import csv
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from amalgam import FiniteRing, harness, properties  # noqa: E402
from run import Pass, items_per_pass  # noqa: E402
from workloads import (  # noqa: E402
    COST_FIELDS, COSTS_FILE, LABEL_FIELDS, LABELS_FILE, REFERENCE_FILE, Suite, load_labels,
    props_record, props_request, reference_key,
)

COST_REPEATS = 3


def record_labels() -> None:
    catalog = harness.build_catalog()
    entries = [(r.label, r) for r in catalog.rings] + [(s.label, s) for s in catalog.specs]
    rows = []
    for label, source in entries:
        ring = source if isinstance(source, FiniteRing) else source.build().ring
        own = props_record(properties.property_report(ring))
        try:
            record, outcome = props_request(label), "ok"
        except Exception as exc:
            record, outcome = own, type(exc).__name__
        if record != own:
            print(f"note: {label}: parsed ring reports differently from the catalog ring")
        rows.append({"label": label, "size": ring.size, "outcome": outcome, "record": record})
    with open(LABELS_FILE, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LABEL_FIELDS, delimiter="\t", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    failed = sum(row["outcome"] != "ok" for row in rows)
    print(f"{len(rows)} labels, {failed} do not evaluate")


def record_costs() -> None:
    rows = []
    labels = [row["label"] for row in load_labels()]
    best = [float("inf")] * len(labels)
    for _ in range(COST_REPEATS):
        for i, label in enumerate(labels):
            start = time.perf_counter()
            try:
                props_request(label)
            except Exception:  # the known ParseError labels cost their parse
                pass
            best[i] = min(best[i], time.perf_counter() - start)
    rows += [("props", label, t) for label, t in zip(labels, best)]
    specs = [s.label for s in harness.build_catalog().specs]
    best = [float("inf")] * len(specs)
    for _ in range(COST_REPEATS):
        catalog = harness.build_catalog()
        sweep = Suite(catalog, 0, len(catalog.specs))
        sweep.run()
        # A spec's time is the gap to the next one, so the last has none.
        gaps = list(sweep.check().latencies_s)
        best = [min(b, g) for b, g in zip(best, gaps + [sorted(gaps)[len(gaps) // 2]])]
    rows += [("suite", label, t) for label, t in zip(specs, best)]
    with open(COSTS_FILE, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(COST_FIELDS)
        writer.writerows((w, label, f"{1000 * t:.3f}") for w, label, t in rows)
    print(f"{len(rows)} costs")


def record_reference(first: int, last: int, seconds: float = 45.0) -> None:
    reference = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    for seed in range(first, last + 1):
        n = items_per_pass("suite", seconds)
        outcome = Pass("suite", seed, n).outcome
        if outcome.problems:
            raise SystemExit(f"suite seed {seed}: {outcome.problems}")
        reference[reference_key("suite", seed, n)] = outcome.digest
        print(f"suite seed={seed} n={n} {outcome.digest}", flush=True)
        REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["labels"]:
        record_labels()
    elif sys.argv[1:2] == ["costs"]:
        record_costs()
    elif sys.argv[1:2] == ["reference"]:
        record_reference(int(sys.argv[2]), int(sys.argv[3]))
    else:
        raise SystemExit(__doc__)
