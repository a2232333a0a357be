"""One ring per distinct instance table within a pass.

`verify_clauses` holds one `RingMemo` for the pass: an instance whose base
and J-position tables (jadd, jmul, fj) match a ring among the last
`MEMO_RINGS` takes that ring, its pA and {0} x J, and proves it again by
its own pB.  The oracles here are an independent LRU over the keys, the
tables `pair_ring_tables` builds for the instance itself, and weakrefs.
"""
import gc
import weakref
from collections import OrderedDict

import numpy as np
import pytest

import amalgam.amalgamation as amalgamation
import amalgam.harness as harness
from amalgam.amalgamation import MEMO_RINGS, PREDICATES, RingMemo
from amalgam.errors import InternalCheckError
from amalgam.harness import verify_clauses, verify_duplication_criterion
from amalgam.rings import FiniteRing, RingHom, pair_ring_tables
from catalog_generator import SMALL_PARAMS, generated_catalog


@pytest.fixture(scope="module")
def small_catalog():
    return generated_catalog(SMALL_PARAMS)


def _key(inst):
    return (id(inst.base), *(t.tobytes() for t in inst.j_tables[1:]))


def _lru_misses(keys) -> int:
    """Rings an LRU of `MEMO_RINGS` entries builds over the keys, in order."""
    window: OrderedDict = OrderedDict()
    misses = 0
    for key in keys:
        if key in window:
            window.move_to_end(key)
            continue
        misses += 1
        window[key] = None
        if len(window) > MEMO_RINGS:
            window.popitem(last=False)
    return misses


def _count_builds(monkeypatch) -> list:
    """The arguments of every amalgamation table build from now on."""
    built = []
    real = amalgamation.pair_ring_tables

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(amalgamation, "pair_ring_tables", counting)
    return built


def test_cor_2_3_builds_one_ring_per_key_within_the_window(catalog, monkeypatch):
    population = [
        amalgamation.duplication(ring, ideal, catalog.size_cap)
        for ring in catalog.rings
        if ring.size <= 16 and ring.is_local
        for ideal in harness.all_ideals(ring)
        if not ideal.is_whole
    ]
    assert _lru_misses(map(_key, population)) == 197
    built = _count_builds(monkeypatch)
    shared = RingMemo()
    verdict = verify_duplication_criterion(catalog, shared)
    assert verdict.checked == len(population) == 379
    assert len(built) == shared.builds == 197 and shared.hits == 182


def test_spec_sweep_builds_one_ring_per_key_within_the_window(small_catalog, monkeypatch):
    keys = [_key(spec.build()) for spec in small_catalog.specs]
    built = _count_builds(monkeypatch)
    verify_clauses(small_catalog, ["lemma-2.2", "chain"])
    assert len(built) == _lru_misses(keys) < len(keys)


def test_the_memo_keeps_the_last_memo_rings_rings(small_catalog):
    distinct = {}
    for spec in small_catalog.specs:
        distinct.setdefault(_key(spec.build()), spec)
    specs = list(distinct.values())[: MEMO_RINGS + 1]
    assert len(specs) == MEMO_RINGS + 1
    shared = RingMemo()

    def read(spec):
        inst = spec.build()
        inst.memo = shared
        return weakref.ref(inst.ring)

    first = read(specs[0])
    refs = [read(spec) for spec in specs[1:]]
    assert (shared.builds, shared.hits) == (MEMO_RINGS + 1, 0)
    assert first() is None and all(ref() is not None for ref in refs)  # the oldest went
    read(specs[1])
    read(specs[0])
    assert (shared.builds, shared.hits) == (MEMO_RINGS + 2, 1)


def test_a_hit_shares_the_ring_whose_tables_the_instance_would_build(small_catalog):
    shared = RingMemo()
    seen: dict = {}
    hits = 0
    for spec in small_catalog.specs:
        inst = spec.build()
        inst.memo = shared
        before = shared.hits
        ring = inst.ring
        if shared.hits == before:
            seen[_key(inst)] = ring
            continue
        hits += 1
        assert ring is seen[_key(inst)] and ring.label != inst.label
        base, target, jlist = inst.base, inst.target, inst.j.indices
        jpos, jadd, jmul, fj = inst.j_tables
        size, add, mul, neg, zero, one = pair_ring_tables(
            base, jadd, jpos[target.neg[jlist]], jpos[target.zero], fj, jmul
        )
        assert (size, zero, one) == (ring.size, ring.zero, ring.one)
        assert np.array_equal(add, ring.add) and np.array_equal(mul, ring.mul) and np.array_equal(neg, ring.neg)
        # its own pB: (a, j) -> f(a) + j into its own target
        ia = np.repeat(np.arange(base.size), len(jlist))
        assert inst.to_target.target is target
        assert np.array_equal(inst.to_target.map, target.add[inst.f.map[ia], np.tile(jlist, base.size)])
    assert hits > 0


def test_every_hit_checks_its_own_pb(small_catalog, monkeypatch):
    corrupted = []
    real = FiniteRing._prove

    def corrupt_pb_on_a_hit(self, proof, label=None):
        pa = proof.out_of[0] if proof.out_of else None
        if isinstance(pa, RingHom) and self.size > pa.target.size:  # a hit with J != 0
            # send (0, j_1), j_1 != 0, to zero, which (pA, pB) then cannot tell from zero
            target, second, tag = proof.out_of[1]
            second = second.copy()
            second[1] = target.zero
            proof.out_of = (pa, (target, second, tag))
            corrupted.append(label)
        return real(self, proof, label)

    monkeypatch.setattr(FiniteRing, "_prove", corrupt_pb_on_a_hit)
    with pytest.raises(InternalCheckError) as info:
        verify_clauses(small_catalog, ["lemma-2.2"])
    assert len(corrupted) == 1 and str(info.value).startswith(f"proof of {corrupted[0]} fails")


def test_rows_and_witnesses_carry_instance_labels(small_catalog, monkeypatch):
    rows = []
    real_row = harness._row
    monkeypatch.setattr(harness, "_row", lambda ring, label: rows.append((label, ring.label)) or real_row(ring, label))
    verify_clauses(small_catalog, ["chain"])
    labels = [spec.label for spec in small_catalog.specs] + [ring.label for ring in small_catalog.rings]
    assert [label for label, _ in rows] == labels
    shared = [label for label, ring_label in rows if label != ring_label]
    assert shared  # some rows read a ring first built for another instance

    # a violation on an instance with a shared ring names that instance
    local = PREDICATES["amalgamation local"]
    monkeypatch.setitem(
        PREDICATES, "amalgamation local", lambda i: (not local(i)) if i.label == shared[0] else local(i)
    )
    verdict = verify_clauses(small_catalog, ["lemma-2.2"])["lemma-2.2"]
    assert verdict.violations == 1 and verdict.witness.startswith(f"{shared[0]} :: ")


def test_no_ring_outlives_the_pass(small_catalog, monkeypatch):
    built = []
    init = FiniteRing.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(FiniteRing, "__init__", recording)
    gc.disable()
    try:
        verdicts = verify_clauses(small_catalog, list(harness.CLAUSE_IDS), with_search=True)
        assert all(v.ok for v in verdicts.values())
        assert len(built) > MEMO_RINGS
        assert [ref for ref in built if ref() is not None] == []  # freed by their refcounts
    finally:
        gc.enable()
