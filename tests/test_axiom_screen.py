"""The construction axiom screen: the fixed-seed sampled triples above 16
elements, every triple up to 16, with the messages and witnesses of the
per-first-coordinate loop and of the 2-D sampled gathers, both kept here as
oracles."""
import numpy as np
import pytest

from amalgam.errors import StructureError
from amalgam.rings import (
    CONSTRUCTION_SAMPLE_COUNT,
    FiniteRing,
    _sample_triples,
    product,
    truncated_poly_algebra,
    zmod,
)


def loop_screen(n, add, mul):
    """Oracle: every triple, one first coordinate at a time; the message of
    the first failure (addition, then multiplication, then distributivity
    for each a) or None."""
    for a in range(n):
        if not (add[add[a], :] == add[a][add]).all():
            bad = np.argwhere(add[add[a], :] != add[a][add])[0]
            return f"addition not associative at {(a, int(bad[0]), int(bad[1]))}"
        if not (mul[mul[a], :] == mul[a][mul]).all():
            bad = np.argwhere(mul[mul[a], :] != mul[a][mul])[0]
            return f"multiplication not associative at {(a, int(bad[0]), int(bad[1]))}"
        ma = mul[a]
        if not (ma[add] == add[np.ix_(ma, ma)]).all():
            bad = np.argwhere(ma[add] != add[np.ix_(ma, ma)])[0]
            return f"distributivity fails at {(a, int(bad[0]), int(bad[1]))}"
    return None


def sampled_screen(n, add, mul, sample=CONSTRUCTION_SAMPLE_COUNT):
    """Oracle: a fresh `default_rng(0)` draw and 2-D gathers; the message of
    the first failing law or None."""
    a, b, c = np.random.default_rng(0).integers(0, n, size=(3, sample))
    if not (add[add[a, b], c] == add[a, add[b, c]]).all():
        return "addition not associative (sampled)"
    if not (mul[mul[a, b], c] == mul[a, mul[b, c]]).all():
        return "multiplication not associative (sampled)"
    if not (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all():
        return "distributivity fails (sampled)"
    return None


def with_fault(table, x, y, value):
    """A copy of a symmetric table with entries (x, y) and (y, x) set to value."""
    out = np.array(table)
    out[x, y] = out[y, x] = value
    return out


def screen_message(ring, add, mul):
    """The StructureError message of building a ring on these tables, or None."""
    try:
        FiniteRing(ring.size, add, mul, ring.neg, ring.zero, ring.one, "faulty")
    except StructureError as exc:
        return str(exc)
    return None


def test_sampled_triples_are_the_fixed_seed_draw():
    for n in (17, 64, 4096):
        triples = _sample_triples(n, CONSTRUCTION_SAMPLE_COUNT)
        expected = np.random.default_rng(0).integers(0, n, size=(3, CONSTRUCTION_SAMPLE_COUNT))
        assert triples.dtype == np.int32 and not triples.flags.writeable
        assert (triples == expected).all()
        assert _sample_triples(n, CONSTRUCTION_SAMPLE_COUNT) is triples  # drawn once per size


def test_fault_at_a_sampled_triple_raises_the_sampled_error():
    ring = zmod(17)
    a, b, c = (int(v[0]) for v in _sample_triples(17, CONSTRUCTION_SAMPLE_COUNT))
    assert min(a, b, c) >= 2 and a != b  # off the identity rows, so the O(n^2) screen passes
    faults = [
        (with_fault(ring.add, a, b, (a + b + 1) % 17), ring.mul),
        (ring.add, with_fault(ring.mul, a, b, (a * b + 1) % 17)),
    ]
    for add, mul in faults:
        expected = sampled_screen(17, add, mul)
        assert expected is not None and expected.endswith("(sampled)")
        assert screen_message(ring, add, mul) == expected
        with pytest.raises(StructureError, match=r"\(sampled\)"):
            FiniteRing(17, add, mul, ring.neg, ring.zero, ring.one, "faulty")


@pytest.mark.parametrize(
    "ring",
    [zmod(16), zmod(12), zmod(9), truncated_poly_algebra(2, 2, 2), product(zmod(2), zmod(4))],
    ids=lambda r: r.label,
)
def test_exhaustive_screen_names_the_loop_witness(ring):
    n = ring.size
    rng = np.random.default_rng(7)
    raised = 0
    for _ in range(40):
        x, y = (int(v) for v in rng.integers(0, n, size=2))
        value = int(rng.integers(0, n))
        # keep the identity rows and the negation entries, which the O(n^2) screen checks
        if rng.integers(2):
            if ring.zero in (x, y) or y == ring.neg[x] or value == ring.add[x, y]:
                continue
            add, mul = with_fault(ring.add, x, y, value), ring.mul
        else:
            if ring.one in (x, y) or value == ring.mul[x, y]:
                continue
            add, mul = ring.add, with_fault(ring.mul, x, y, value)
        expected = loop_screen(n, add, mul)
        assert screen_message(ring, add, mul) == expected, (x, y, value)
        raised += expected is not None
    assert raised >= 10
    assert loop_screen(n, ring.add, ring.mul) is None
    assert screen_message(ring, ring.add, ring.mul) is None


@pytest.mark.parametrize("n", [12, 16, 17, 64])
def test_relabelled_multiplication_fails_distributivity_alone(n):
    # multiplication carried along the swap of 2 and 3 stays an associative,
    # commutative monoid with identity 1, but no longer distributes over +
    ring = zmod(n)
    swap = np.arange(n)
    swap[[2, 3]] = [3, 2]
    mul = swap[ring.mul[np.ix_(swap, swap)]]
    screen = loop_screen if n**3 <= CONSTRUCTION_SAMPLE_COUNT else sampled_screen
    expected = screen(n, ring.add, mul)
    assert expected is not None and expected.startswith("distributivity fails")
    assert screen_message(ring, ring.add, mul) == expected


def test_fault_past_2_16_at_a_sampled_triple_raises_the_sampled_error():
    # at 4,096 elements the flat index a * n + b of a sampled pair passes 2^16,
    # so the screen must form it in int64 to read the planted entry
    ring = zmod(4096)
    n = ring.size
    a, b, c = next(
        (int(a), int(b), int(c))
        for a, b, c in _sample_triples(n, CONSTRUCTION_SAMPLE_COUNT).T
        if a * n + b >= 2**16 and min(a, b, c) >= 2 and a != b and (a + b) % n != 0
    )
    faults = [
        (with_fault(ring.add, a, b, (a + b + 1) % n), ring.mul),
        (ring.add, with_fault(ring.mul, a, b, (a * b + 1) % n)),
    ]
    for add, mul in faults:
        expected = sampled_screen(n, add, mul)
        assert expected is not None and expected.endswith("(sampled)")
        assert screen_message(ring, add, mul) == expected
