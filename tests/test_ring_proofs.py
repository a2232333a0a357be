"""Derived rings rest on the homs that derive them, not on the sampled screen."""
import gc
import weakref

import numpy as np
import pytest

from amalgam import cli, rings
from amalgam.amalgamation import PREDICATES, amalgamate, duplication, f_image_plus_j, holds
from amalgam.errors import InternalCheckError, StructureError
from amalgam.expressions import ComposeHomExpr, EmbedHomExpr, Evaluator, ProjHomExpr, parse
from amalgam.harness import EXAMPLES, reproduce_examples
from amalgam.ideals import ideal_generated, maximal_ideals
from amalgam.modules import trivial_extension, vspace_over_residue
from amalgam.properties import gaussian_check, is_arithmetical, is_local, property_report
from amalgam.rings import FiniteRing, Proof, RingHom, product, quotient, truncated_poly_algebra, zmod
from oracles import is_chain_ring


def _derived(name):
    """A real ring of one proving constructor, with the proof that derived it."""
    z4 = zmod(4)
    target, embed = trivial_extension(z4, vspace_over_residue(z4, 1))
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
    return FiniteRing(ring.size, ring.add, mul, ring.neg, ring.zero, ring.one, label, proof)


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


def _asymmetric_mul(ring):
    mul, add = ring.mul.copy(), ring.add
    x, y = [v for v in range(ring.size) if v not in (ring.zero, ring.one)][:2]
    mul[x, y] = (int(mul[x, y]) + 1) % ring.size
    return add, mul


def _broken_one_row(ring):
    mul, add = ring.mul.copy(), ring.add
    y = next(v for v in range(ring.size) if v not in (ring.zero, ring.one))
    mul[ring.one, y] = mul[y, ring.one] = (y + 1) % ring.size  # still symmetric
    return add, mul


def _broken_zero_row(ring):
    mul, add = ring.mul, ring.add.copy()
    y = next(v for v in range(ring.size) if v not in (ring.zero, ring.one))
    add[ring.zero, y] = add[y, ring.zero] = (y + 1) % ring.size  # still symmetric
    return add, mul


@pytest.mark.parametrize("corrupt", [_asymmetric_mul, _broken_one_row, _broken_zero_row])
@pytest.mark.parametrize("name", ["quotient", "product", "amalgamate", "duplication", "f_image_plus_j"])
def test_proof_alone_catches_broken_identities_and_commutativity(name, corrupt):
    # a proven ring skips the O(n^2) identity and commutativity screen, so
    # its proof is what refuses these tables: an internal error (exit 3),
    # not the screen's StructureError (exit 2)
    ring, proof = _derived(name)
    add, mul = corrupt(ring)
    with pytest.raises(InternalCheckError, match=f"proof of corrupt {name} fails"):
        FiniteRing(ring.size, add, mul, ring.neg, ring.zero, ring.one, f"corrupt {name}", proof)
    with pytest.raises(StructureError):  # the screen still refuses them without a proof
        FiniteRing(ring.size, add, mul, ring.neg, ring.zero, ring.one, "raw")


def test_an_unclosed_carrier_fails_its_inclusion_proof():
    # `f_image_plus_j` gathers its subring's tables through carrier positions
    # and leaves closure to the inclusion's proof: {0,1,2,3} in Z/8 is not
    # closed, and the proof, read before negation, refuses it as a bug (exit 3)
    z8, carrier = zmod(8), np.arange(4)
    pos = np.zeros(z8.size, dtype=rings.TABLE_DTYPE)
    pos[carrier] = np.arange(carrier.size)
    pairs = np.ix_(carrier, carrier)
    tables = pos[z8.add[pairs]], pos[z8.mul[pairs]], pos[z8.neg[carrier]]
    with pytest.raises(InternalCheckError, match=r"proof of sub fails: f\(x\+y\)"):
        FiniteRing(4, *tables, 0, 1, "sub", proof=Proof(out_of=((z8, carrier, "incl"),)))


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
    module = vspace_over_residue(z4, 1)
    target, embed = trivial_extension(z4, module)

    def refuse(self, sample):
        raise AssertionError(f"cubic screen ran on {self.label}")

    monkeypatch.setattr(FiniteRing, "_check_cubic_axioms", refuse)
    quotient(z12, ideal_generated(z12, [4]))
    product(z4, z4)
    product(z1, z3)
    amalgamate(z4, target, embed, ideal_generated(target, [1, 4])).ring  # built on first read
    duplication(z8, ideal_generated(z8, [4])).ring
    f_image_plus_j(target, embed, ideal_generated(target, [4]))
    for build in (
        lambda: zmod(20),
        lambda: truncated_poly_algebra(2, 2, 2),
        lambda: trivial_extension(z4, module),
        lambda: FiniteRing(4, z4.add, z4.mul, z4.neg, 0, 1, "raw"),
    ):
        with pytest.raises(AssertionError, match="cubic screen ran"):
            build()


def _record_rings(monkeypatch) -> list[tuple[str, weakref.ref]]:
    """(label, weakref) of every ring constructed from now on."""
    built = []
    init = FiniteRing.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self.label, weakref.ref(self)))

    monkeypatch.setattr(FiniteRing, "__init__", recording)
    return built


def test_derived_ring_keeps_no_reference_to_its_proof(monkeypatch):
    z12 = zmod(12)
    gc.disable()
    try:
        quot, proj = quotient(z12, ideal_generated(z12, [4]))
        assert not any(isinstance(v, (RingHom, Proof)) for v in vars(quot).values())
        ref = weakref.ref(quot)
        del quot, proj
        assert ref() is None  # freed by its refcount: no ring -> hom -> ring cycle

        # nor does any cache: one ring per constructor, every structure read
        built = _record_rings(monkeypatch)
        ev = Evaluator()
        for text in (
            "zmod(12)",
            "tpa(2,2,2)",
            "product(zmod(4),tpa(2,2,2))",
            "quot(zmod(12);4)",
            "trivext(zmod(4);resfield(1))",
            "dup(zmod(6);2)",
            "amalg(zmod(4),trivext(zmod(4);resfield(1)),embed;1,4)",
            # refused by the ideal guard: by its lower bound, then while enumerating
            "trivext(zmod(2);resfield(5))",
            "dup(trivext(zmod(8);resfield(1));1,4)",
        ):
            property_report(ev.ring(parse(text)))
        # f(A) + J is 4 of the target's 8 elements, a proper subring
        inst = ev.instance(parse("amalg(zmod(4),trivext(zmod(4);resfield(1)),embed;4)"))
        for name in PREDICATES:
            holds(inst, name)
        property_report(inst.fimage_plus_j)
        labels = [label for label, _ in built]
        assert any(label.startswith("quot(dup(zmod(6);2);") for label in labels)  # a local factor
        assert any(label.startswith("subring(fimage+J;") for label in labels)
        del ev, inst
        assert [label for label, ref in built if ref() is not None] == []
    finally:
        gc.enable()


def test_structure_is_computed_once_and_unread_rings_are_not_built(monkeypatch):
    quotients, validated = [], []
    real_quotient, real_validate = rings.quotient, RingHom._validate
    monkeypatch.setattr(rings, "quotient", lambda *args: quotients.append(args) or real_quotient(*args))
    monkeypatch.setattr(RingHom, "_validate", lambda self: validated.append(self) or real_validate(self))
    ring = Evaluator().ring(parse("product(zmod(4),tpa(2,2,2))"))  # a chain factor and a Gaussian non-chain one
    validated.clear()
    for _ in range(3):
        assert len(ring.local_factors) == len(ring.local_factor_maps()) == len(maximal_ideals(ring)) == 2
        assert not ring.is_local and is_local(ring) is None
        assert gaussian_check(ring)[0] and not is_arithmetical(ring)
    # the quotient's proof validates its projection, once per factor
    assert len(quotients) == 2 and [h.label for h in validated] == ["proj", "proj"]

    # example 2.7 misses a hypothesis on its surrogate, whose ring nobody reads
    surrogate = Evaluator().instance(parse(EXAMPLES["2.7"].expression)).label
    built = _record_rings(monkeypatch)
    (report,) = reproduce_examples(example_ids=("2.7",))
    assert report.status == "pass" and report.replaced_with is not None
    labels = [label for label, _ in built]
    assert report.replaced_with in labels and surrogate not in labels


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
        _, outer = ev.hom(hexpr.outer, expr, mid)
        _, inner = ev.hom(hexpr.inner, expr.ring, source)
        built.clear()
        monkeypatch.setattr(RingHom, "__init__", counting)
        _, resolved = ev.hom(hexpr, expr, source)
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
        assert is_chain_ring(ring) == (is_arithmetical(ring) and len(ring.local_factor_maps()) <= 1), ring.label
    for ring in (zmod(1), zmod(8), zmod(12), product(zmod(2), zmod(2))):
        assert property_report(ring).chain_ring == is_chain_ring(ring), ring.label
