"""The benchmark workloads and their correctness checks.

Each workload is prepared from a fresh catalog and a seed (untimed), run
(timed) and checked (untimed).  Package functions are looked up on their
modules at call time, so a tracer that rebinds them sees every call.

- suite: the `amalgam suite` path -- `verify_clauses(..., CLAUSE_IDS,
  with_search=True)` over a seeded sample of the catalog's instance specs,
  then `reproduce_examples` over the whole catalog.  The sweep is heavy on
  the ideal lattice and property layers, the examples (example 2.7's
  replacement search) on ring construction and validation.
- props: closed loop, one client: parse -> fresh `Evaluator().ring` ->
  `property_report` for a seeded sample of the frozen label list -- the
  interactive calculator; nothing carries over between requests.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import statistics
import time
from pathlib import Path

import numpy as np

from amalgam import expressions, harness, properties

HERE = Path(__file__).resolve().parent
LABELS_FILE = HERE / "labels.tsv"
REFERENCE_FILE = HERE / "reference.json"
COSTS_FILE = HERE / "costs.tsv"
COST_FIELDS = ("workload", "label", "cost_ms")
LABEL_FIELDS = ("label", "size", "outcome", "record")
PARSE_ERROR = "ParseError"
ERROR_PREFIX = "error:"


def stratified_sample(costs: list[float], n: int, seed: int) -> list[int]:
    """n indices, one from each of n equal blocks of the items ordered by
    cost, returned in input order.  Every seed then draws the same cost
    profile, so seeds differ in which items run, not in how much work."""
    order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    n = min(n, len(order))
    edges = np.linspace(0, len(order), n + 1).astype(int)
    rng = np.random.default_rng(seed)
    return sorted(order[int(rng.integers(lo, hi))] for lo, hi in zip(edges[:-1], edges[1:]))


def cost_profile(workload: str, labels: list[str]) -> list[float]:
    """The recorded cost of each item (costs.tsv), the median for an item
    recorded after the file was written."""
    with open(COSTS_FILE, newline="") as fh:
        costs = {row["label"]: float(row["cost_ms"]) for row in csv.DictReader(fh, delimiter="\t")
                 if row["workload"] == workload}
    default = statistics.median(costs.values())
    return [costs.get(label, default) for label in labels]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _members(ideal) -> list[int] | None:
    return None if ideal is None else sorted(int(x) for x in ideal.members)


def props_record(report) -> str:
    """Digest of a PropertyReport: every verdict and witness, no labels."""
    arith = report.arithmetical_witness
    fields = [
        report.size, report.local, _members(report.maximal_ideal), report.reduced,
        report.field, report.total_quotient_ring, report.chain_ring, report.arithmetical,
        report.gaussian, report.prufer,
        None if report.gaussian_witness is None else [int(v) for v in report.gaussian_witness[1:]],
        None if arith is None else [_members(i) for i in arith],
    ]
    return digest(json.dumps(fields))


def verdict_text(verdicts: dict, examples: list) -> str:
    lines = [" ".join(f"{k}={v}" for k, v in verdicts[c].record_pairs()) for c in verdicts]
    lines += [" ".join(f"{k}={v}" for k, v in r.record_pairs()) for r in examples]
    return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class StampedSpec(harness.InstanceSpec):
    """An instance spec that records when the sweep starts building it; the
    gap to the next spec's stamp is that spec's latency."""

    stamps: list = dataclasses.field(default_factory=list, compare=False, repr=False)

    def build(self, size_cap: int = 4096):
        self.stamps.append(time.perf_counter())
        return super().build(size_cap)


@dataclasses.dataclass
class Outcome:
    attempted: int
    failed: int
    item_starts: list[float]
    latencies_s: list[float]
    problems: list[str]
    digest: str


def _stamped_catalog(catalog, seed: int, n: int):
    specs = catalog.specs
    if n >= len(specs):
        chosen = range(len(specs))
    else:
        chosen = stratified_sample(cost_profile("suite", [s.label for s in specs]), n, seed)
    stamps: list[float] = []
    sample = [
        StampedSpec(**{f.name: getattr(specs[i], f.name) for f in dataclasses.fields(harness.InstanceSpec)},
                    stamps=stamps)
        for i in chosen
    ]
    return dataclasses.replace(catalog, specs=sample), stamps


def _verdict_problems(verdicts: dict, n_specs: int, n_rings: int) -> list[str]:
    problems = []
    if set(verdicts) != set(harness.CLAUSE_IDS) | {"search"}:
        problems.append(f"unexpected verdict set {sorted(verdicts)}")
    for cid, v in verdicts.items():
        if v.status == "violation":
            problems.append(f"{cid}: violation {v.witness}")
        expected = {"chain": n_specs + n_rings, "search": n_specs + n_rings, "cor-2.3": None}.get(cid, n_specs)
        if expected is not None and v.checked != expected:
            problems.append(f"{cid}: checked {v.checked}, expected {expected}")
    return problems


class Suite:
    def __init__(self, catalog, seed: int, n: int):
        self.full = catalog
        self.catalog, self.stamps = _stamped_catalog(catalog, seed, n)

    def run(self) -> None:
        self.verdicts = harness.verify_clauses(self.catalog, list(harness.CLAUSE_IDS), with_search=True)
        self.examples = harness.reproduce_examples(self.full)

    def check(self) -> Outcome:
        n = len(self.catalog.specs)
        problems = _verdict_problems(self.verdicts, n, len(self.full.rings))
        problems += [f"example {r.example_id}: {r.status}" for r in self.examples
                     if r.status not in ("pass", "out-of-scope")]
        if len(self.examples) != len(harness.EXAMPLE_IDS):
            problems.append(f"{len(self.examples)} example reports, expected {len(harness.EXAMPLE_IDS)}")
        return Outcome(n + len(self.examples), 0, self.stamps, list(np.diff(self.stamps)), problems,
                       digest(verdict_text(self.verdicts, self.examples)))


def load_labels() -> list[dict]:
    with open(LABELS_FILE, newline="") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def props_request(text: str) -> str:
    """One calculator request; returns its record digest."""
    ring = expressions.Evaluator().ring(expressions.parse(text))
    return props_record(properties.property_report(ring))


class Props:
    def __init__(self, catalog, seed: int, n: int):
        labels = load_labels()
        chosen = stratified_sample(cost_profile("props", [row["label"] for row in labels]), n, seed)
        self.rows = [labels[i] for i in chosen]

    def run(self) -> None:
        self.results, self.starts, self.latencies = [], [], []
        clock = time.perf_counter
        for row in self.rows:
            start = clock()
            try:
                result = props_request(row["label"])
            except Exception as exc:  # a failed request is counted, not fatal
                result = ERROR_PREFIX + type(exc).__name__
            self.latencies.append(clock() - start)
            self.starts.append(start)
            self.results.append(result)

    def check(self) -> Outcome:
        problems, failed = [], 0
        for row, result in zip(self.rows, self.results):
            failed += result.startswith(ERROR_PREFIX)
            known_defect = row["outcome"] == PARSE_ERROR and result == ERROR_PREFIX + PARSE_ERROR
            if result != row["record"] and not known_defect:
                problems.append(f"props {row['label']}: got {result}, expected {row['record']}")
        text = "\n".join(f"{row['label']} {result}" for row, result in zip(self.rows, self.results))
        return Outcome(len(self.rows), failed, self.starts, self.latencies, problems, digest(text))


WORKLOADS = {"suite": Suite, "props": Props}


def reference_key(workload: str, seed: int, n: int) -> str:
    return f"{workload}:{seed}:{n}"
