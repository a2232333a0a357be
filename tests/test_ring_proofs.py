"""Derived rings rest on the homs that derive them, not on the sampled screen."""
import gc
import weakref

import numpy as np
import pytest

from amalgam import cli
from amalgam.amalgamation import amalgamate, duplication, f_image_plus_j
from amalgam.errors import InternalCheckError
from amalgam.expressions import ComposeHomExpr, EmbedHomExpr, Evaluator, ProjHomExpr, parse
from amalgam.harness import EXAMPLES
from amalgam.ideals import ideal_generated
from amalgam.modules import trivial_extension, vspace_over_residue
from amalgam.properties import is_arithmetical, property_report
from amalgam.rings import FiniteRing, Proof, RingHom, product, quotient, truncated_poly_algebra, zmod
from oracles import is_chain_ring


def _derived(name):
    """A real ring of one proving constructor, with the proof that derived it."""
    z4 = zmod(4)
    target, embed = trivial_extension(z4, vspace_over_residue(z4, ideal_generated(z4, [2]), 1))
    if name == "quotient":
        z12 = zmod(12)
        quot, proj = quotient(z12, ideal_generated(z12, [4]))
        return quot, Proof(onto=((z12, proj.map, "proj"),))
    if name == "product":
        z3, idx = zmod(3), np.arange(12)
        return product(z4, z3), Proof(out_of=((z4, idx // 3, "pA"), (z3, idx % 3, "pB")))
    if name == "f_image_plus_j":
        sub, incl = f_image_plus_j(target, embed, ideal_generated(target, [4]))
        return sub, Proof(out_of=((target, incl.map, "incl"),))
    if name == "amalgamate":
        inst = amalgamate(z4, target, embed, ideal_generated(target, [1, 4]))
    else:
        z8 = zmod(8)
        inst = duplication(z8, ideal_generated(z8, [4]))
    maps = ((inst.base, inst.to_base.map, "pA"), (inst.target, inst.to_target.map, "pB"))
    return inst.ring, Proof(out_of=maps)


def _rebuild(ring, proof, mul, label):
    return FiniteRing(ring.size, ring.add, mul, ring.neg, ring.zero, ring.one, label, ring.element_names, proof)


@pytest.mark.parametrize("name", ["quotient", "product", "amalgamate", "duplication", "f_image_plus_j"])
def test_corrupted_derived_ring_fails_its_proof(name):
    ring, proof = _derived(name)
    _rebuild(ring, proof, ring.mul, name)  # the real tables pass
    assert [h.label for h in proof.homs] == [spec[2] for spec in (*proof.onto, *proof.out_of)]
    # one symmetric entry off the identity row and column, so the O(n^2) screen passes
    x, y = [v for v in range(ring.size) if v != ring.one][:2]
    mul = ring.mul.copy()
    mul[x, y] = mul[y, x] = (int(ring.mul[x, y]) + 1) % ring.size
    with pytest.raises(InternalCheckError):
        _rebuild(ring, proof, mul, f"corrupt {name}")


def test_proof_kind_is_checked():
    z4, z2 = zmod(4), zmod(2)
    with pytest.raises(InternalCheckError):  # a hom, but not injective
        FiniteRing(4, z4.add, z4.mul, z4.neg, 0, 1, "z4", proof=Proof(out_of=((z2, [0, 1, 0, 1], "mod2"),)))
    p = product(z2, z2)
    with pytest.raises(InternalCheckError):  # the diagonal is a hom, but not onto
        FiniteRing(4, p.add, p.mul, p.neg, p.zero, p.one, "F2xF2", proof=Proof(onto=((z2, [0, 3], "diag"),)))


def test_failed_proof_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(RingHom, "is_surjective", property(lambda self: False))
    assert cli.main(["props", "quot(zmod(8);2)", "--machine"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_only_derived_rings_skip_the_cubic_screen(monkeypatch):
    z1, z3, z4, z12, z8 = zmod(1), zmod(3), zmod(4), zmod(12), zmod(8)
    module = vspace_over_residue(z4, ideal_generated(z4, [2]), 1)
    target, embed = trivial_extension(z4, module)

    def refuse(self, sample):
        raise AssertionError(f"cubic screen ran on {self.label}")

    monkeypatch.setattr(FiniteRing, "_check_cubic_axioms", refuse)
    quotient(z12, ideal_generated(z12, [4]))
    product(z4, z4)
    product(z1, z3)
    amalgamate(z4, target, embed, ideal_generated(target, [1, 4]))
    duplication(z8, ideal_generated(z8, [4]))
    f_image_plus_j(target, embed, ideal_generated(target, [4]))
    for build in (
        lambda: zmod(20),
        lambda: truncated_poly_algebra(2, 2, 2),
        lambda: trivial_extension(z4, module),
        lambda: FiniteRing(4, z4.add, z4.mul, z4.neg, 0, 1, "raw"),
    ):
        with pytest.raises(AssertionError, match="cubic screen ran"):
            build()


def test_derived_ring_keeps_no_reference_to_its_proof():
    z12 = zmod(12)
    gc.disable()
    try:
        quot, proj = quotient(z12, ideal_generated(z12, [4]))
        assert not any(isinstance(v, (RingHom, Proof)) for v in vars(quot).values())
        ref = weakref.ref(quot)
        del quot, proj
        assert ref() is None  # freed by its refcount: no ring -> hom -> ring cycle
    finally:
        gc.enable()


def test_compose_hom_resolves_with_one_hom_construction(monkeypatch):
    built = []
    init = RingHom.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    for text, hexpr in (
        ("trivext(quot(zmod(8);4);regular)", ComposeHomExpr(EmbedHomExpr(), ProjHomExpr())),
        ("quot(trivext(zmod(4);regular);2)", ComposeHomExpr(ProjHomExpr(), EmbedHomExpr())),
    ):
        ev = Evaluator()
        expr = parse(text)
        ring, source = ev.ring(expr), ev.ring(expr.ring.ring)
        mid = ev.ring(expr.ring)
        outer = ev.resolve_hom(hexpr.outer, mid, expr)
        inner = ev.resolve_hom(hexpr.inner, source, expr.ring)
        built.clear()
        monkeypatch.setattr(RingHom, "__init__", counting)
        resolved = ev.resolve_hom(hexpr, source, expr)
        monkeypatch.setattr(RingHom, "__init__", init)
        assert built == [resolved]
        assert resolved.source is source and resolved.target is ring
        assert resolved.label == hexpr.unparse()
        assert (resolved.map == outer.map[inner.map]).all()


def test_chain_ring_is_arithmetical_with_at_most_one_local_factor(catalog):
    rings = list(catalog.rings)
    for case in EXAMPLES.values():
        inst = Evaluator().instance(parse(case.expression))
        rings += [inst.ring, inst.base, inst.target, inst.fimage_plus_j]
    for ring in rings:
        assert is_chain_ring(ring) == (is_arithmetical(ring) and len(ring.local_factors) <= 1), ring.label
    for ring in (zmod(1), zmod(8), zmod(12), product(zmod(2), zmod(2))):
        assert property_report(ring).chain_ring == is_chain_ring(ring), ring.label
