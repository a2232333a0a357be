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

Amalgamation images: R = A |><|^f J maps onto A by pA, (a, f(a) + j) to a,
and onto f(A) + J by pB, (a, f(a) + j) to f(a) + j, so by quotient closure
A and f(A) + J are Gaussian, arithmetical or local whenever R is.  This is
all thm-2.1:1 states, so that clause holds in every ring.  The relation is
read through the instance's validated homs: pA must be onto A, and pB's
image must be the carrier of the subring f(A) + J.
"""
from collections import Counter

from amalgam.amalgamation import RingMemo, duplication, f_image_plus_j
from amalgam.ideals import all_ideals
from amalgam.properties import RING_FACTS
from amalgam.rings import quotient
from catalog_generator import SMALL_PARAMS, generated_catalog

QUOTIENT_CLOSED = ("Gaussian", "arithmetical", "local", "chain ring")
IMAGE_CLOSED = ("Gaussian", "arithmetical", "local")


def test_quotient_closure_on_every_catalog_ring_and_proper_nonzero_ideal(catalog):
    premises, pairs = Counter(), 0
    for ring in catalog.rings:
        if isinstance(ring.ideal_lattice, str):
            continue  # past the enumeration guard
        held = [fact for fact in QUOTIENT_CLOSED if RING_FACTS[fact](ring)]
        for ideal in all_ideals(ring):
            if ideal.is_zero or not ideal.is_proper:
                continue
            quot, _ = quotient(ring, ideal)
            pairs += 1
            for fact in held:
                premises[fact] += 1
                assert RING_FACTS[fact](quot), f"{ring.label} is {fact}, {quot.label} is not"
    print(f"quotient closure: {pairs} (R, I) pairs, premise held: {dict(premises)}")
    assert pairs == 1388
    assert premises == {"Gaussian": 1054, "arithmetical": 362, "local": 1034, "chain ring": 46}


def test_amalgamation_images_on_the_small_catalog_and_cor_2_3(catalog):
    # the small test catalog's specs, then cor-2.3's duplications, the
    # rings shared through one memo as a pass shares them
    small = generated_catalog(SMALL_PARAMS)
    population = [spec.build(small.size_cap) for spec in small.specs]
    population += [
        duplication(ring, ideal, catalog.size_cap)
        for ring, ideals in zip(catalog.rings, catalog.ideals)
        if ring.size <= 16 and ring.is_local
        for ideal in ideals
    ]
    memo, premises = RingMemo(), Counter()
    for inst in population:
        inst.memo = memo
        image, incl = f_image_plus_j(inst.target, inst.f, inst.j)
        assert inst.to_base.source is inst.ring and inst.to_base.target is inst.base
        assert inst.to_base.is_surjective, inst.label
        assert inst.to_target.target is incl.target is inst.target
        assert set(inst.to_target.map.tolist()) == set(incl.map.tolist()), inst.label
        for fact in IMAGE_CLOSED:
            if RING_FACTS[fact](inst.ring):
                premises[fact] += 1
                assert RING_FACTS[fact](inst.base), f"{inst.label} is {fact}, its base is not"
                assert RING_FACTS[fact](image), f"{inst.label} is {fact}, f(A) + J is not"
    print(f"amalgamation images: {len(population)} instances, premise held: {dict(premises)}")
    assert len(population) == 678 + 379
    assert premises == {"Gaussian": 888, "arithmetical": 123, "local": 978}
