"""Peak memory of large constructions, counted by tracemalloc.

tracemalloc counts numpy buffers the same way on every machine, so these
bounds do not depend on the allocator or on resident-set accounting.
Example 2.4's 2,048-element instance has two int32 tables of 16 MB each;
building them entry by entry through n x n int64 index arrays peaked at
160 MB, and the unblocked Gaussian pair check at 52 MB above its start.
tpa(2,1,12) has two int32 tables of 64 MB each; building its addition
through an n x n x m int64 temporary peaked at 3.1 GB of resident memory.
"""
import tracemalloc

from amalgam.amalgamation import amalgamate
from amalgam.expressions import EmbedHomExpr, Evaluator, RegularExpr, TrivextExpr, ZmodExpr
from amalgam.ideals import Ideal
from amalgam.properties import is_gaussian, is_local
from amalgam.rings import pair_indices, truncated_poly_algebra

MB = 1 << 20


def test_example_2_4_build_and_gaussian_peaks():
    ev = Evaluator()
    base = ev.ring(ZmodExpr(16))
    target_expr = TrivextExpr(ZmodExpr(16), RegularExpr())
    target = ev.ring(target_expr)
    j = Ideal(target, pair_indices(is_local(base).indices, target.size // base.size))
    f = ev.resolve_hom(EmbedHomExpr(), base, target_expr)

    tracemalloc.start()
    try:
        inst = amalgamate(base, target, f, j)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        gaussian = is_gaussian(inst.ring)
        _, gaussian_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert inst.ring.size == 2048 and not gaussian
    assert build_peak <= 64 * MB, f"build peaked at {build_peak / MB:.1f} MB"
    assert gaussian_peak - start <= 24 * MB, f"is_gaussian peaked at {(gaussian_peak - start) / MB:.1f} MB"


def test_tpa_2_1_12_build_peak():
    tracemalloc.start()
    try:
        ring = truncated_poly_algebra(2, 1, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ring.size == 4096
    assert peak <= 200 * MB, f"tpa(2,1,12) build peaked at {peak / MB:.1f} MB"
