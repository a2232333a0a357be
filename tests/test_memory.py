"""Peak memory of large constructions, counted by tracemalloc.

tracemalloc counts numpy buffers the same way on every machine, so these
bounds do not depend on the allocator or on resident-set accounting.
Every table is uint16.  Example 2.4's 2,048-element instance has two
tables of 8 MiB each; with row blocks of 512 KiB its build peaks at 17.5 MiB
and `is_gaussian` at 1.1 MiB above its start.  Blocks of 2^18 entries,
whatever their dtype, peaked at 19.8 and 2.0 MiB, int32 tables near 38 MB,
and building the tables entry by entry through n x n int64 index arrays
at 160 MB.  The unblocked Gaussian pair check peaked at 52 MB above its
start.  tpa(2,1,12) has two tables of 32 MB each; its build peaks near
67 MB, 132 MB with int32 tables, and building its addition through an
n x n x m int64 temporary peaked at 3.1 GB of resident memory.
trivext(zmod(64);regular) and product(zmod(64),zmod(64)) have the same two
tables and peak near 67 and 69 MB (133 with int32 tables); gathering them
through n x n int64 index arrays peaked at 320 and 192 MB.  The
enumeration of a 256-element ideal lattice peaked at 3.1 MB above its
start when each round's temporaries were not cut into row blocks.
resfield(11) over zmod(2) and resfield(10) over zmod(4) have one 8 MB and
one 2 MB addition table and peak near 12 and 6 MB; gathering them through
(q^d, q^d, d) int64 arrays peaked at 560 and 128 MB.  A ring past the
65,536 elements a uint16 table can index is refused before any table is
allocated, whatever the cap.  On zmod(4096) and tpa(2,1,12) the
incomparable-pair scan of `is_arithmetical` and the multiple check of
`chain_certificate` peaked at 33 and 17 MB above their start through
n x n bool temporaries, and near 10.7 MiB with those read one row block
at a time but the product m * m gathered whole; with the ideal layer in
row blocks too, both peak at 1.4 MiB.  quotient(zmod(4096), (2)) peaked
at 16.2 MiB above its start through a whole 4,096 x 2,048 coset gather
and peaks at 0.8 MiB with it in row blocks.  The lattice join of the
106 ideals of trivext(tpa(2,2,3);resfield(1)) peaked at 1.28 MiB through
one L x L x L bool temporary and peaks at 0.65 MiB one row block at a
time, and that join set the peak of `property_report` over the catalog
(1.29 MiB, now 0.65 MiB).
"""
import gc
import tracemalloc

import pytest

from amalgam import cli
from amalgam.amalgamation import amalgamate
from amalgam.errors import CapExceededError
from amalgam.harness import reproduce_examples
from amalgam.expressions import EmbedHomExpr, Evaluator, RegularExpr, TrivextExpr, ZmodExpr, parse
from amalgam.ideals import Ideal, enumerate_ideals, ideal_generated, lattice_order
from amalgam.modules import vspace_over_residue
from amalgam.properties import chain_certificate, is_arithmetical, is_gaussian, is_local, property_report
from amalgam.rings import hom_identity, pair_indices, product, quotient, truncated_poly_algebra, zmod

MB = 1 << 20


def test_example_2_4_build_and_gaussian_peaks():
    ev = Evaluator()
    base = ev.ring(ZmodExpr(16))
    target_expr = TrivextExpr(ZmodExpr(16), RegularExpr())
    target = ev.ring(target_expr)
    j = Ideal(target, pair_indices(is_local(base).indices, target.size // base.size))
    _, f = ev.hom(EmbedHomExpr(), target_expr, base)

    tracemalloc.start()
    try:
        inst = amalgamate(base, target, f, j)
        ring = inst.ring  # the tables are built on this first read
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        gaussian = is_gaussian(ring)
        _, gaussian_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert ring.size == 2048 and not gaussian
    tables = ring.add.nbytes + ring.mul.nbytes
    assert tables == 16 * MB
    assert build_peak <= tables + 2 * MB, f"build peaked at {build_peak / MB:.2f} MB"
    assert gaussian_peak - start <= 1.5 * MB, f"is_gaussian peaked at {(gaussian_peak - start) / MB:.2f} MB"


def test_tpa_2_1_12_build_peak():
    tracemalloc.start()
    try:
        ring = truncated_poly_algebra(2, 1, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ring.size == 4096
    assert peak <= 96 * MB, f"tpa(2,1,12) build peaked at {peak / MB:.1f} MB"


@pytest.mark.parametrize("label", ["trivext(zmod(64);regular)", "product(zmod(64),zmod(64))"])
def test_trivext_and_product_build_peaks(label):
    tracemalloc.start()
    try:
        ring = Evaluator().ring(parse(label))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ring.size == 4096
    assert peak <= 96 * MB, f"{label} build peaked at {peak / MB:.1f} MB"


@pytest.mark.parametrize(
    "label, count",
    [("dup(trivext(zmod(16);quotmod(regular;4));19)", None), ("dup(trivext(zmod(16);resfield(1));5)", 93)],
)
def test_lattice_enumeration_temporaries_peak(label, count):
    # a 256-element local ring refused at its 129th ideal, and one with 93 ideals
    ring = Evaluator().ring(parse(label))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        try:
            found = len(enumerate_ideals(ring))
        except CapExceededError:
            found = None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ring.size == 256 and found == count
    assert peak - start <= 1.5 * MB, f"enumerating {label} peaked at {(peak - start) / MB:.2f} MB"


@pytest.mark.parametrize("n, dim, bound", [(2, 11, 32), (4, 10, 8)])
def test_vspace_over_residue_build_peak(n, dim, bound):
    base = zmod(n)
    tracemalloc.start()
    try:
        module = vspace_over_residue(base, dim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert module.size == 2**dim
    assert peak <= bound * MB, f"resfield({dim}) over zmod({n}) peaked at {peak / MB:.1f} MB"


@pytest.mark.parametrize("label", ["zmod(4096)", "tpa(2,1,12)"])
def test_arithmetical_and_chain_certificate_peaks(label):
    ring = Evaluator().ring(parse(label))
    ring.units_mask, ring.principal_membership  # built before the count starts
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        arithmetical = is_arithmetical(ring)
        _, arithmetical_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        start_chain, _ = tracemalloc.get_traced_memory()
        chain_certificate(ring)
        _, chain_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert arithmetical
    assert arithmetical_peak - start <= 1.5 * MB, f"is_arithmetical peaked at {(arithmetical_peak - start) / MB:.2f} MB"
    assert chain_peak - start_chain <= 1.5 * MB, f"chain_certificate peaked at {(chain_peak - start_chain) / MB:.2f} MB"


def _peak_above_start(run) -> int:
    """Bytes that `run()` held at its peak above what was held when it started."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def test_quotient_by_a_large_ideal_peak():
    # (2) has 2,048 members, so reading every coset through whole rows of
    # `add` at the members gathers 4,096 x 2,048 table entries
    small = zmod(4)
    quotient(small, ideal_generated(small, [2]))  # imports what the first quotient imports
    ring = zmod(4096)
    peak = _peak_above_start(lambda: quotient(ring, ideal_generated(ring, [2])))
    assert peak <= 1 * MB, f"quotient(zmod(4096), (2)) peaked at {peak / MB:.2f} MB"


def test_lattice_join_peak():
    ring = Evaluator().ring(parse("trivext(tpa(2,2,3);resfield(1))"))
    lattice_order(ring)  # the lattice is enumerated and kept before the count starts
    assert len(ring.ideal_lattice) == 106
    peak = _peak_above_start(lambda: lattice_order(ring))
    assert peak <= 0.75 * MB, f"lattice_order peaked at {peak / MB:.2f} MB"


def test_property_report_stays_within_the_block_budget(catalog):
    peaks = {}
    for ring in catalog.rings:
        property_report(ring)  # the caches this builds are kept, so the next report holds only transients
        peaks[ring.label] = _peak_above_start(lambda: property_report(ring))
    label = max(peaks, key=peaks.get)
    assert peaks[label] <= 0.75 * MB, f"property_report on {label} peaked at {peaks[label] / MB:.2f} MB"


def test_examples_free_their_rings_without_the_cyclic_gc():
    # no ring cache points back at its ring, so each example's rings go with
    # its Evaluator, and 2.7's 1,024-element surrogate is never built
    gc.disable()
    tracemalloc.start()
    try:
        reports = reproduce_examples()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert all(report.ok for report in reports)
    assert peak <= 28 * MB, f"examples peaked at {peak / MB:.1f} MB"
    assert held <= 4 * MB, f"examples still hold {held / MB:.1f} MB"


def test_props_past_the_table_limit_exits_2_before_allocating(capsys):
    # two 70,000^2 int32 tables would take 19.6 GB each; the cap refuses first
    tracemalloc.start()
    try:
        code = cli.main(["props", "--max-ring-size", "100000", "zmod(70000)"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "zmod(70000) would have 70000 elements, cap is 65536" in capsys.readouterr().err
    assert peak <= 1 * MB, f"refusing zmod(70000) peaked at {peak / MB:.2f} MB"


def test_every_constructor_refuses_past_the_table_limit_under_a_larger_cap():
    big = 10**6
    z2, z300 = zmod(2), zmod(300)
    builds = [
        lambda: truncated_poly_algebra(2, 1, 17, size_cap=big),
        lambda: product(z300, z300, size_cap=big),
        lambda: vspace_over_residue(z2, 17, size_cap=big),
        lambda: amalgamate(z300, z300, hom_identity(z300), Ideal(z300, range(300)), size_cap=big),
    ]
    for build in builds:
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="cap is 65536"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1 * MB, f"a refusal peaked at {peak / MB:.2f} MB"
