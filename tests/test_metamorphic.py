"""Metamorphic relations: fact checkers against the algebra they must obey.

Each relation is a theorem about all commutative rings, so a failure is a
bug in this package, and each reports how often its premise held, so a
relation that never fires shows.

Quotient closure: a quotient of a Gaussian, arithmetical, local or chain
ring by a proper ideal is again one.  A finitely generated ideal of R/I is
the image of one of R, and content ideals of polynomials over R/I are the
images of content ideals over R, so c(fg) = c(f)c(g) passes to R/I; the
ideals of R/I are the ideals of R above I, so a distributive lattice or a
chain passes to it; the maximal ideals of R/I are those of R above I.
"""
from collections import Counter

from amalgam.ideals import all_ideals
from amalgam.properties import RING_FACTS
from amalgam.rings import quotient

QUOTIENT_CLOSED = ("Gaussian", "arithmetical", "local", "chain ring")


def test_quotient_closure_on_every_catalog_ring_and_proper_nonzero_ideal(catalog):
    premises, pairs = Counter(), 0
    for ring in catalog.rings:
        if isinstance(ring.ideal_lattice, str):
            continue  # past the enumeration guard
        held = [fact for fact in QUOTIENT_CLOSED if RING_FACTS[fact](ring)]
        for ideal in all_ideals(ring):
            if ideal.is_zero or ideal.is_whole:
                continue
            quot, _ = quotient(ring, ideal)
            pairs += 1
            for fact in held:
                premises[fact] += 1
                assert RING_FACTS[fact](quot), f"{ring.label} is {fact}, {quot.label} is not"
    print(f"quotient closure: {pairs} (R, I) pairs, premise held: {dict(premises)}")
    assert pairs == 1388
    assert premises == {"Gaussian": 1054, "arithmetical": 362, "local": 1034, "chain ring": 46}
