"""The catalog's rings as expression text, one label a line, in catalog
order, and the proper ideals of each ring as generator tuples.

`harness.build_catalog` parses and builds each label, and closes each
generator tuple of `CATALOG_IDEALS` into its ideal J with
`ideals.ideal_generated`, so no ideal lattice is enumerated; its instances
pair these rings with the homs of `harness.CATALOG_HOMS` and these ideals.
Both tuples are data, generated by `tests/catalog_generator.py`: the rings
from bounded families of the grammar, and the J lists by enumerating each
ring's ideal lattice and spelling every ideal but the whole ring, in
lattice order (by size, then membership), by its canonical generators
(`Ideal.generators`).  A tier-1 test re-derives both, in order, the rings
table-identical.  To change the catalog, change the generator, review
what it changes with

    PYTHONPATH=src python tests/catalog_generator.py | diff src/amalgam/catalog.py -

and write its output over this file (through a temporary file: the package
imports this module).
"""

CATALOG_RINGS = (
    "zmod(1)",
    "zmod(2)",
    "zmod(3)",
    "zmod(4)",
    "zmod(5)",
    "zmod(6)",
    "zmod(7)",
    "zmod(8)",
    "zmod(9)",
    "zmod(10)",
    "zmod(11)",
    "zmod(12)",
    "zmod(13)",
    "zmod(14)",
    "zmod(15)",
    "zmod(16)",
    "tpa(2,1,2)",
    "tpa(2,1,3)",
    "tpa(2,1,4)",
    "tpa(2,1,5)",
    "tpa(2,1,6)",
    "tpa(2,2,2)",
    "tpa(2,2,3)",
    "tpa(2,3,2)",
    "tpa(3,1,2)",
    "tpa(3,1,3)",
    "tpa(3,2,2)",
    "tpa(5,1,2)",
    "tpa(7,1,2)",
    "product(zmod(2),zmod(2))",
    "product(zmod(2),zmod(3))",
    "product(zmod(2),zmod(4))",
    "product(zmod(2),zmod(5))",
    "product(zmod(2),zmod(6))",
    "product(zmod(2),zmod(7))",
    "product(zmod(2),zmod(8))",
    "product(zmod(2),zmod(9))",
    "product(zmod(2),tpa(2,1,2))",
    "product(zmod(3),zmod(3))",
    "product(zmod(3),zmod(4))",
    "product(zmod(3),zmod(5))",
    "product(zmod(3),zmod(6))",
    "product(zmod(3),zmod(7))",
    "product(zmod(3),zmod(8))",
    "product(zmod(3),zmod(9))",
    "product(zmod(3),tpa(2,1,2))",
    "product(zmod(4),zmod(4))",
    "product(zmod(4),zmod(5))",
    "product(zmod(4),zmod(6))",
    "product(zmod(4),zmod(7))",
    "product(zmod(4),zmod(8))",
    "product(zmod(4),zmod(9))",
    "product(zmod(4),tpa(2,1,2))",
    "product(zmod(5),zmod(5))",
    "product(zmod(5),zmod(6))",
    "product(zmod(5),zmod(7))",
    "product(zmod(5),zmod(8))",
    "product(zmod(5),zmod(9))",
    "product(zmod(5),tpa(2,1,2))",
    "product(zmod(6),zmod(6))",
    "product(zmod(6),zmod(7))",
    "product(zmod(6),zmod(8))",
    "product(zmod(6),zmod(9))",
    "product(zmod(6),tpa(2,1,2))",
    "product(zmod(7),zmod(7))",
    "product(zmod(7),zmod(8))",
    "product(zmod(7),zmod(9))",
    "product(zmod(7),tpa(2,1,2))",
    "product(zmod(8),zmod(8))",
    "product(zmod(8),tpa(2,1,2))",
    "product(zmod(9),tpa(2,1,2))",
    "product(tpa(2,1,2),tpa(2,1,2))",
    "trivext(zmod(2);regular)",
    "trivext(zmod(2);resfield(2))",
    "trivext(zmod(3);regular)",
    "trivext(zmod(3);resfield(2))",
    "trivext(zmod(4);regular)",
    "trivext(zmod(4);resfield(1))",
    "trivext(zmod(4);resfield(2))",
    "trivext(zmod(5);regular)",
    "trivext(zmod(6);regular)",
    "trivext(zmod(7);regular)",
    "trivext(zmod(8);regular)",
    "trivext(zmod(8);resfield(1))",
    "trivext(zmod(8);resfield(2))",
    "trivext(zmod(8);quotmod(regular;4))",
    "trivext(zmod(9);resfield(1))",
    "trivext(zmod(11);resfield(1))",
    "trivext(zmod(13);resfield(1))",
    "trivext(zmod(16);resfield(1))",
    "trivext(zmod(16);quotmod(regular;4))",
    "trivext(tpa(2,1,2);regular)",
    "trivext(tpa(2,1,2);resfield(1))",
    "trivext(tpa(2,1,2);resfield(2))",
    "trivext(tpa(2,1,3);regular)",
    "trivext(tpa(2,1,3);resfield(1))",
    "trivext(tpa(2,1,3);resfield(2))",
    "trivext(tpa(2,1,3);quotmod(regular;4))",
    "trivext(tpa(2,1,4);resfield(1))",
    "trivext(tpa(2,1,4);quotmod(regular;4))",
    "trivext(tpa(2,1,5);resfield(1))",
    "trivext(tpa(2,1,6);resfield(1))",
    "trivext(tpa(2,2,2);regular)",
    "trivext(tpa(2,2,2);resfield(1))",
    "trivext(tpa(2,2,2);resfield(2))",
    "trivext(tpa(2,2,3);resfield(1))",
    "trivext(tpa(2,3,2);resfield(1))",
    "trivext(tpa(3,1,2);resfield(1))",
    "trivext(tpa(3,1,3);resfield(1))",
    "trivext(tpa(3,2,2);resfield(1))",
    "trivext(tpa(5,1,2);resfield(1))",
    "trivext(product(zmod(2),zmod(2));regular)",
    "trivext(product(zmod(2),zmod(3));regular)",
    "trivext(product(zmod(2),zmod(4));regular)",
    "trivext(product(zmod(2),tpa(2,1,2));regular)",
    "trivext(trivext(zmod(2);resfield(2));resfield(1))",
    "trivext(trivext(zmod(4);regular);resfield(1))",
    "trivext(trivext(zmod(4);resfield(2));resfield(1))",
    "trivext(trivext(tpa(2,1,2);regular);resfield(1))",
    "trivext(trivext(tpa(2,1,2);resfield(2));resfield(1))",
    "quot(product(zmod(3),zmod(4));2)",
    "quot(product(zmod(4),zmod(4));2)",
    "quot(product(zmod(4),zmod(6));3)",
    "quot(product(zmod(5),zmod(6));3)",
    "quot(product(zmod(5),zmod(6));2)",
    "quot(product(zmod(6),tpa(2,1,2));2)",
    "quot(product(zmod(7),tpa(2,1,2));2)",
    "quot(product(zmod(8),tpa(2,1,2));2)",
    "quot(product(tpa(2,1,2),tpa(2,1,2));2)",
    "quot(trivext(zmod(4);regular);2,9)",
    "quot(trivext(zmod(4);resfield(2));9)",
    "quot(trivext(zmod(4);resfield(2));10)",
    "quot(trivext(zmod(4);resfield(2));11)",
    "quot(trivext(zmod(8);resfield(1));9)",
    "quot(trivext(zmod(8);resfield(2));17)",
    "quot(trivext(zmod(8);resfield(2));18)",
    "quot(trivext(zmod(8);resfield(2));19)",
    "quot(trivext(zmod(8);quotmod(regular;4));18)",
    "quot(trivext(zmod(9);resfield(1));10)",
    "quot(trivext(zmod(9);resfield(1));11)",
    "quot(trivext(zmod(16);resfield(1));17)",
    "quot(trivext(tpa(2,1,3);resfield(1));9)",
    "quot(trivext(tpa(2,1,3);resfield(2));17)",
    "quot(trivext(tpa(2,1,3);resfield(2));18)",
    "quot(trivext(tpa(2,1,3);resfield(2));19)",
    "quot(trivext(tpa(2,1,3);quotmod(regular;4));18)",
    "quot(trivext(tpa(2,1,4);resfield(1));17)",
    "quot(trivext(product(zmod(2),zmod(2));regular);1)",
    "quot(trivext(product(zmod(2),zmod(2));regular);2)",
    "quot(trivext(trivext(zmod(4);regular);resfield(1));5)",
    "quot(trivext(trivext(zmod(4);resfield(2));resfield(1));17)",
    "quot(trivext(trivext(zmod(4);resfield(2));resfield(1));18)",
    "quot(trivext(trivext(zmod(4);resfield(2));resfield(1));19)",
    "quot(trivext(trivext(zmod(4);resfield(2));resfield(1));20)",
    "quot(trivext(trivext(zmod(4);resfield(2));resfield(1));21)",
    "quot(trivext(trivext(zmod(4);resfield(2));resfield(1));22)",
    "quot(trivext(trivext(zmod(4);resfield(2));resfield(1));23)",
    "quot(trivext(trivext(tpa(2,1,2);regular);resfield(1));5)",
)

# The proper ideals of each ring of CATALOG_RINGS, in the same order: one
# tuple of canonical generator tuples a ring, headed by its label, in
# lattice order; () generates the zero ideal.
CATALOG_IDEALS = (
    # zmod(1)
    (),
    # zmod(2)
    ((),),
    # zmod(3)
    ((),),
    # zmod(4)
    ((), (2,)),
    # zmod(5)
    ((),),
    # zmod(6)
    ((), (3,), (2,)),
    # zmod(7)
    ((),),
    # zmod(8)
    ((), (4,), (2,)),
    # zmod(9)
    ((), (3,)),
    # zmod(10)
    ((), (5,), (2,)),
    # zmod(11)
    ((),),
    # zmod(12)
    ((), (6,), (4,), (3,), (2,)),
    # zmod(13)
    ((),),
    # zmod(14)
    ((), (7,), (2,)),
    # zmod(15)
    ((), (5,), (3,)),
    # zmod(16)
    ((), (8,), (4,), (2,)),
    # tpa(2,1,2)
    ((), (2,)),
    # tpa(2,1,3)
    ((), (4,), (2,)),
    # tpa(2,1,4)
    ((), (8,), (4,), (2,)),
    # tpa(2,1,5)
    ((), (16,), (8,), (4,), (2,)),
    # tpa(2,1,6)
    ((), (32,), (16,), (8,), (4,), (2,)),
    # tpa(2,2,2)
    ((), (2,), (4,), (6,), (2, 4)),
    # tpa(2,2,3)
    ((), (8,), (16,), (24,), (32,), (40,), (48,), (56,), (8, 16), (8, 32), (8, 48), (16, 32), (16, 40), (24, 32), (24, 40), (2,), (4,), (6,), (8, 16, 32), (8, 16, 34), (12,), (14,), (2, 32), (4, 8), (6, 8), (2, 4)),
    # tpa(2,3,2)
    ((), (2,), (4,), (6,), (8,), (10,), (12,), (14,), (2, 4), (2, 8), (2, 12), (4, 8), (4, 10), (6, 8), (6, 10), (2, 4, 8)),
    # tpa(3,1,2)
    ((), (3,)),
    # tpa(3,1,3)
    ((), (9,), (3,)),
    # tpa(3,2,2)
    ((), (3,), (9,), (12,), (15,), (3, 9)),
    # tpa(5,1,2)
    ((), (5,)),
    # tpa(7,1,2)
    ((), (7,)),
    # product(zmod(2),zmod(2))
    ((), (1,), (2,)),
    # product(zmod(2),zmod(3))
    ((), (3,), (1,)),
    # product(zmod(2),zmod(4))
    ((), (2,), (4,), (1,), (2, 4)),
    # product(zmod(2),zmod(5))
    ((), (5,), (1,)),
    # product(zmod(2),zmod(6))
    ((), (3,), (6,), (2,), (3, 6), (1,), (2, 6)),
    # product(zmod(2),zmod(7))
    ((), (7,), (1,)),
    # product(zmod(2),zmod(8))
    ((), (4,), (8,), (2,), (4, 8), (1,), (2, 8)),
    # product(zmod(2),zmod(9))
    ((), (9,), (3,), (3, 9), (1,)),
    # product(zmod(2),tpa(2,1,2))
    ((), (2,), (4,), (1,), (2, 4)),
    # product(zmod(3),zmod(3))
    ((), (1,), (3,)),
    # product(zmod(3),zmod(4))
    ((), (2,), (4,), (1,), (2, 4)),
    # product(zmod(3),zmod(5))
    ((), (5,), (1,)),
    # product(zmod(3),zmod(6))
    ((), (3,), (2,), (6,), (1,), (3, 6), (2, 6)),
    # product(zmod(3),zmod(7))
    ((), (7,), (1,)),
    # product(zmod(3),zmod(8))
    ((), (4,), (8,), (2,), (4, 8), (1,), (2, 8)),
    # product(zmod(3),zmod(9))
    ((), (3,), (9,), (1,), (3, 9)),
    # product(zmod(3),tpa(2,1,2))
    ((), (2,), (4,), (1,), (2, 4)),
    # product(zmod(4),zmod(4))
    ((), (2,), (8,), (1,), (2, 8), (4,), (1, 8), (2, 4)),
    # product(zmod(4),zmod(5))
    ((), (10,), (5,), (1,), (1, 10)),
    # product(zmod(4),zmod(6))
    ((), (3,), (12,), (2,), (3, 12), (6,), (1,), (2, 12), (3, 6), (1, 12), (2, 6)),
    # product(zmod(4),zmod(7))
    ((), (14,), (7,), (1,), (1, 14)),
    # product(zmod(4),zmod(8))
    ((), (4,), (16,), (2,), (4, 16), (8,), (1,), (2, 16), (4, 8), (1, 16), (2, 8)),
    # product(zmod(4),zmod(9))
    ((), (18,), (3,), (9,), (3, 18), (1,), (3, 9), (1, 18)),
    # product(zmod(4),tpa(2,1,2))
    ((), (2,), (8,), (1,), (2, 8), (4,), (1, 8), (2, 4)),
    # product(zmod(5),zmod(5))
    ((), (1,), (5,)),
    # product(zmod(5),zmod(6))
    ((), (3,), (2,), (6,), (1,), (3, 6), (2, 6)),
    # product(zmod(5),zmod(7))
    ((), (7,), (1,)),
    # product(zmod(5),zmod(8))
    ((), (4,), (2,), (8,), (1,), (4, 8), (2, 8)),
    # product(zmod(5),zmod(9))
    ((), (3,), (9,), (1,), (3, 9)),
    # product(zmod(5),tpa(2,1,2))
    ((), (2,), (1,), (4,), (2, 4)),
    # product(zmod(6),zmod(6))
    ((), (3,), (18,), (2,), (12,), (3, 18), (1,), (2, 18), (3, 12), (6,), (2, 12), (1, 18), (3, 6), (1, 12), (2, 6)),
    # product(zmod(6),zmod(7))
    ((), (21,), (14,), (7,), (1,), (1, 21), (1, 14)),
    # product(zmod(6),zmod(8))
    ((), (4,), (24,), (16,), (2,), (4, 24), (4, 16), (8,), (1,), (2, 24), (2, 16), (4, 8), (1, 24), (1, 16), (2, 8)),
    # product(zmod(6),zmod(9))
    ((), (27,), (3,), (18,), (3, 27), (9,), (1,), (3, 18), (1, 27), (3, 9), (1, 18)),
    # product(zmod(6),tpa(2,1,2))
    ((), (2,), (12,), (8,), (1,), (2, 12), (2, 8), (4,), (1, 12), (1, 8), (2, 4)),
    # product(zmod(7),zmod(7))
    ((), (1,), (7,)),
    # product(zmod(7),zmod(8))
    ((), (4,), (2,), (8,), (1,), (4, 8), (2, 8)),
    # product(zmod(7),zmod(9))
    ((), (3,), (9,), (1,), (3, 9)),
    # product(zmod(7),tpa(2,1,2))
    ((), (2,), (1,), (4,), (2, 4)),
    # product(zmod(8),zmod(8))
    ((), (4,), (32,), (2,), (4, 32), (16,), (1,), (2, 32), (4, 16), (8,), (1, 32), (2, 16), (4, 8), (1, 16), (2, 8)),
    # product(zmod(8),tpa(2,1,2))
    ((), (2,), (16,), (1,), (2, 16), (8,), (1, 16), (2, 8), (4,), (1, 8), (2, 4)),
    # product(zmod(9),tpa(2,1,2))
    ((), (2,), (12,), (1,), (2, 12), (4,), (1, 12), (2, 4)),
    # product(tpa(2,1,2),tpa(2,1,2))
    ((), (2,), (8,), (1,), (2, 8), (4,), (1, 8), (2, 4)),
    # trivext(zmod(2);regular)
    ((), (1,)),
    # trivext(zmod(2);resfield(2))
    ((), (1,), (2,), (3,), (1, 2)),
    # trivext(zmod(3);regular)
    ((), (1,)),
    # trivext(zmod(3);resfield(2))
    ((), (1,), (3,), (4,), (5,), (1, 3)),
    # trivext(zmod(4);regular)
    ((), (2,), (1,), (2, 8), (2, 9), (1, 8)),
    # trivext(zmod(4);resfield(1))
    ((), (1,), (4,), (5,), (1, 4)),
    # trivext(zmod(4);resfield(2))
    ((), (1,), (2,), (3,), (8,), (9,), (10,), (11,), (1, 2), (1, 8), (1, 10), (2, 8), (2, 9), (3, 8), (3, 9), (1, 2, 8)),
    # trivext(zmod(5);regular)
    ((), (1,)),
    # trivext(zmod(6);regular)
    ((), (3,), (2,), (3, 18), (1,), (2, 12), (1, 18), (1, 12)),
    # trivext(zmod(7);regular)
    ((), (1,)),
    # trivext(zmod(8);regular)
    ((), (4,), (2,), (4, 32), (4, 34), (1,), (2, 32), (2, 33), (1, 32), (2, 16), (2, 17), (1, 16)),
    # trivext(zmod(8);resfield(1))
    ((), (1,), (8,), (9,), (1, 8), (4,), (5,), (1, 4)),
    # trivext(zmod(8);resfield(2))
    ((), (1,), (2,), (3,), (16,), (17,), (18,), (19,), (1, 2), (1, 16), (1, 18), (2, 16), (2, 17), (3, 16), (3, 17), (8,), (9,), (10,), (11,), (1, 2, 16), (1, 8), (1, 10), (2, 8), (2, 9), (3, 8), (3, 9), (1, 2, 8)),
    # trivext(zmod(8);quotmod(regular;4))
    ((), (2,), (16,), (18,), (1,), (2, 16), (2, 17), (1, 16), (2, 8), (2, 9), (1, 8)),
    # trivext(zmod(9);resfield(1))
    ((), (1,), (9,), (10,), (11,), (1, 9)),
    # trivext(zmod(11);resfield(1))
    ((), (1,)),
    # trivext(zmod(13);resfield(1))
    ((), (1,)),
    # trivext(zmod(16);resfield(1))
    ((), (1,), (16,), (17,), (1, 16), (8,), (9,), (1, 8), (4,), (5,), (1, 4)),
    # trivext(zmod(16);quotmod(regular;4))
    ((), (2,), (32,), (34,), (1,), (2, 32), (2, 33), (16,), (17,), (18,), (19,), (1, 32), (2, 16), (2, 17), (1, 16), (2, 8), (2, 9), (1, 8)),
    # trivext(tpa(2,1,2);regular)
    ((), (2,), (1,), (2, 8), (2, 9), (1, 8)),
    # trivext(tpa(2,1,2);resfield(1))
    ((), (1,), (4,), (5,), (1, 4)),
    # trivext(tpa(2,1,2);resfield(2))
    ((), (1,), (2,), (3,), (8,), (9,), (10,), (11,), (1, 2), (1, 8), (1, 10), (2, 8), (2, 9), (3, 8), (3, 9), (1, 2, 8)),
    # trivext(tpa(2,1,3);regular)
    ((), (4,), (2,), (4, 32), (4, 34), (1,), (2, 32), (2, 33), (1, 32), (2, 16), (2, 17), (1, 16)),
    # trivext(tpa(2,1,3);resfield(1))
    ((), (1,), (8,), (9,), (1, 8), (4,), (5,), (1, 4)),
    # trivext(tpa(2,1,3);resfield(2))
    ((), (1,), (2,), (3,), (16,), (17,), (18,), (19,), (1, 2), (1, 16), (1, 18), (2, 16), (2, 17), (3, 16), (3, 17), (8,), (9,), (10,), (11,), (1, 2, 16), (1, 8), (1, 10), (2, 8), (2, 9), (3, 8), (3, 9), (1, 2, 8)),
    # trivext(tpa(2,1,3);quotmod(regular;4))
    ((), (2,), (16,), (18,), (1,), (2, 16), (2, 17), (1, 16), (2, 8), (2, 9), (1, 8)),
    # trivext(tpa(2,1,4);resfield(1))
    ((), (1,), (16,), (17,), (1, 16), (8,), (9,), (1, 8), (4,), (5,), (1, 4)),
    # trivext(tpa(2,1,4);quotmod(regular;4))
    ((), (2,), (32,), (34,), (1,), (2, 32), (2, 33), (16,), (17,), (18,), (19,), (1, 32), (2, 16), (2, 17), (1, 16), (2, 8), (2, 9), (1, 8)),
    # trivext(tpa(2,1,5);resfield(1))
    ((), (1,), (32,), (33,), (1, 32), (16,), (17,), (1, 16), (8,), (9,), (1, 8), (4,), (5,), (1, 4)),
    # trivext(tpa(2,1,6);resfield(1))
    ((), (1,), (64,), (65,), (1, 64), (32,), (33,), (1, 32), (16,), (17,), (1, 16), (8,), (9,), (1, 8), (4,), (5,), (1, 4)),
    # trivext(tpa(2,2,2);regular)
    ((), (2,), (4,), (6,), (2, 4), (2, 16), (2, 20), (4, 32), (4, 34), (6, 48), (6, 50), (1,), (2, 4, 16), (2, 4, 17), (2, 4, 32), (2, 4, 33), (2, 4, 48), (2, 4, 49), (1, 16), (1, 32), (1, 48), (2, 4, 16, 32), (2, 4, 16, 33), (2, 4, 17, 32), (2, 4, 17, 33), (1, 16, 32)),
    # trivext(tpa(2,2,2);resfield(1))
    ((), (1,), (4,), (5,), (8,), (9,), (12,), (13,), (1, 4), (1, 8), (1, 12), (4, 8), (4, 9), (5, 8), (5, 9), (1, 4, 8)),
    # trivext(tpa(2,2,2);resfield(2))
    ((), (1,), (2,), (3,), (8,), (9,), (10,), (11,), (16,), (17,), (18,), (19,), (24,), (25,), (26,), (27,), (1, 2), (1, 8), (1, 10), (1, 16), (1, 18), (1, 24), (1, 26), (2, 8), (2, 9), (2, 16), (2, 17), (2, 24), (2, 25), (3, 8), (3, 9), (3, 16), (3, 17), (3, 24), (3, 25), (8, 16), (8, 17), (8, 18), (8, 19), (9, 16), (9, 17), (9, 18), (9, 19), (10, 16), (10, 17), (10, 18), (10, 19), (11, 16), (11, 17), (11, 18), (11, 19), (1, 2, 8), (1, 2, 16), (1, 2, 24), (1, 8, 16), (1, 8, 18), (1, 10, 16), (1, 10, 18), (2, 8, 16), (2, 8, 17), (2, 9, 16), (2, 9, 17), (3, 8, 16), (3, 8, 17), (3, 9, 16), (3, 9, 17), (1, 2, 8, 16)),
    # trivext(tpa(2,2,3);resfield(1))
    ((), (1,), (16,), (17,), (32,), (33,), (48,), (49,), (64,), (65,), (80,), (81,), (96,), (97,), (112,), (113,), (1, 16), (1, 32), (1, 48), (1, 64), (1, 80), (1, 96), (1, 112), (16, 32), (16, 33), (16, 64), (16, 65), (16, 96), (16, 97), (17, 32), (17, 33), (17, 64), (17, 65), (17, 96), (17, 97), (32, 64), (32, 65), (32, 80), (32, 81), (33, 64), (33, 65), (33, 80), (33, 81), (48, 64), (48, 65), (48, 80), (48, 81), (49, 64), (49, 65), (49, 80), (49, 81), (1, 16, 32), (1, 16, 64), (1, 16, 96), (1, 32, 64), (1, 32, 80), (1, 48, 64), (1, 48, 80), (4,), (5,), (8,), (9,), (12,), (13,), (16, 32, 64), (16, 32, 65), (16, 32, 68), (16, 32, 69), (16, 33, 64), (16, 33, 65), (17, 32, 64), (17, 32, 65), (17, 33, 64), (17, 33, 65), (24,), (25,), (28,), (29,), (1, 4), (1, 8), (1, 12), (1, 16, 32, 64), (1, 16, 32, 68), (1, 24), (1, 28), (4, 64), (4, 65), (5, 64), (5, 65), (8, 16), (8, 17), (9, 16), (9, 17), (12, 16), (12, 17), (13, 16), (13, 17), (1, 4, 64), (1, 8, 16), (1, 12, 16), (4, 8), (4, 9), (5, 8), (5, 9), (1, 4, 8)),
    # trivext(tpa(2,3,2);resfield(1))
    ((), (1,), (4,), (5,), (8,), (9,), (12,), (13,), (16,), (17,), (20,), (21,), (24,), (25,), (28,), (29,), (1, 4), (1, 8), (1, 12), (1, 16), (1, 20), (1, 24), (1, 28), (4, 8), (4, 9), (4, 16), (4, 17), (4, 24), (4, 25), (5, 8), (5, 9), (5, 16), (5, 17), (5, 24), (5, 25), (8, 16), (8, 17), (8, 20), (8, 21), (9, 16), (9, 17), (9, 20), (9, 21), (12, 16), (12, 17), (12, 20), (12, 21), (13, 16), (13, 17), (13, 20), (13, 21), (1, 4, 8), (1, 4, 16), (1, 4, 24), (1, 8, 16), (1, 8, 20), (1, 12, 16), (1, 12, 20), (4, 8, 16), (4, 8, 17), (4, 9, 16), (4, 9, 17), (5, 8, 16), (5, 8, 17), (5, 9, 16), (5, 9, 17), (1, 4, 8, 16)),
    # trivext(tpa(3,1,2);resfield(1))
    ((), (1,), (9,), (10,), (11,), (1, 9)),
    # trivext(tpa(3,1,3);resfield(1))
    ((), (1,), (27,), (28,), (29,), (1, 27), (9,), (10,), (11,), (1, 9)),
    # trivext(tpa(3,2,2);resfield(1))
    ((), (1,), (9,), (10,), (11,), (27,), (28,), (29,), (36,), (37,), (38,), (45,), (46,), (47,), (1, 9), (1, 27), (1, 36), (1, 45), (9, 27), (9, 28), (9, 29), (10, 27), (10, 28), (10, 29), (11, 27), (11, 28), (11, 29), (1, 9, 27)),
    # trivext(tpa(5,1,2);resfield(1))
    ((), (1,), (25,), (26,), (27,), (28,), (29,), (1, 25)),
    # trivext(product(zmod(2),zmod(2));regular)
    ((), (1,), (2,), (1, 2), (1, 4), (2, 8), (1, 2, 4), (1, 2, 8)),
    # trivext(product(zmod(2),zmod(3));regular)
    ((), (3,), (1,), (3, 18), (1, 3), (1, 6), (1, 3, 18), (1, 3, 6)),
    # trivext(product(zmod(2),zmod(4));regular)
    ((), (2,), (4,), (1,), (2, 4), (2, 16), (2, 17), (4, 32), (1, 4), (1, 16), (2, 4, 16), (2, 4, 17), (2, 4, 32), (1, 4, 16), (1, 4, 32), (1, 8), (2, 4, 16, 32), (2, 4, 17, 32), (1, 4, 8), (1, 4, 16, 32)),
    # trivext(product(zmod(2),tpa(2,1,2));regular)
    ((), (2,), (4,), (1,), (2, 4), (2, 16), (2, 17), (4, 32), (1, 4), (1, 16), (2, 4, 16), (2, 4, 17), (2, 4, 32), (1, 4, 16), (1, 4, 32), (1, 8), (2, 4, 16, 32), (2, 4, 17, 32), (1, 4, 8), (1, 4, 16, 32)),
    # trivext(trivext(zmod(2);resfield(2));resfield(1))
    ((), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (1, 2), (1, 4), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5), (1, 2, 4)),
    # trivext(trivext(zmod(4);regular);resfield(1))
    ((), (1,), (4,), (5,), (1, 4), (2,), (3,), (4, 16), (4, 17), (4, 18), (4, 19), (1, 2), (1, 4, 16), (1, 4, 18), (2, 16), (2, 17), (3, 16), (3, 17), (1, 2, 16)),
    # trivext(trivext(zmod(4);resfield(2));resfield(1))
    ((), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (16,), (17,), (18,), (19,), (20,), (21,), (22,), (23,), (1, 2), (1, 4), (1, 6), (1, 16), (1, 18), (1, 20), (1, 22), (2, 4), (2, 5), (2, 16), (2, 17), (2, 20), (2, 21), (3, 4), (3, 5), (3, 16), (3, 17), (3, 20), (3, 21), (4, 16), (4, 17), (4, 18), (4, 19), (5, 16), (5, 17), (5, 18), (5, 19), (6, 16), (6, 17), (6, 18), (6, 19), (7, 16), (7, 17), (7, 18), (7, 19), (1, 2, 4), (1, 2, 16), (1, 2, 20), (1, 4, 16), (1, 4, 18), (1, 6, 16), (1, 6, 18), (2, 4, 16), (2, 4, 17), (2, 5, 16), (2, 5, 17), (3, 4, 16), (3, 4, 17), (3, 5, 16), (3, 5, 17), (1, 2, 4, 16)),
    # trivext(trivext(tpa(2,1,2);regular);resfield(1))
    ((), (1,), (4,), (5,), (1, 4), (2,), (3,), (4, 16), (4, 17), (4, 18), (4, 19), (1, 2), (1, 4, 16), (1, 4, 18), (2, 16), (2, 17), (3, 16), (3, 17), (1, 2, 16)),
    # trivext(trivext(tpa(2,1,2);resfield(2));resfield(1))
    ((), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (16,), (17,), (18,), (19,), (20,), (21,), (22,), (23,), (1, 2), (1, 4), (1, 6), (1, 16), (1, 18), (1, 20), (1, 22), (2, 4), (2, 5), (2, 16), (2, 17), (2, 20), (2, 21), (3, 4), (3, 5), (3, 16), (3, 17), (3, 20), (3, 21), (4, 16), (4, 17), (4, 18), (4, 19), (5, 16), (5, 17), (5, 18), (5, 19), (6, 16), (6, 17), (6, 18), (6, 19), (7, 16), (7, 17), (7, 18), (7, 19), (1, 2, 4), (1, 2, 16), (1, 2, 20), (1, 4, 16), (1, 4, 18), (1, 6, 16), (1, 6, 18), (2, 4, 16), (2, 4, 17), (2, 5, 16), (2, 5, 17), (3, 4, 16), (3, 4, 17), (3, 5, 16), (3, 5, 17), (1, 2, 4, 16)),
    # quot(product(zmod(3),zmod(4));2)
    ((), (1,), (2,)),
    # quot(product(zmod(4),zmod(4));2)
    ((), (1,), (4,), (1, 4), (2,)),
    # quot(product(zmod(4),zmod(6));3)
    ((), (6,), (1,), (3,), (1, 6)),
    # quot(product(zmod(5),zmod(6));3)
    ((), (1,), (3,)),
    # quot(product(zmod(5),zmod(6));2)
    ((), (1,), (2,)),
    # quot(product(zmod(6),tpa(2,1,2));2)
    ((), (1,), (6,), (4,), (1, 6), (1, 4), (2,)),
    # quot(product(zmod(7),tpa(2,1,2));2)
    ((), (1,), (2,)),
    # quot(product(zmod(8),tpa(2,1,2));2)
    ((), (1,), (8,), (1, 8), (4,), (1, 4), (2,)),
    # quot(product(tpa(2,1,2),tpa(2,1,2));2)
    ((), (1,), (4,), (1, 4), (2,)),
    # quot(trivext(zmod(4);regular);2,9)
    ((), (1,)),
    # quot(trivext(zmod(4);resfield(2));9)
    ((), (1,), (2,), (3,), (1, 2)),
    # quot(trivext(zmod(4);resfield(2));10)
    ((), (1,), (2,), (3,), (1, 2)),
    # quot(trivext(zmod(4);resfield(2));11)
    ((), (1,), (2,), (3,), (1, 2)),
    # quot(trivext(zmod(8);resfield(1));9)
    ((), (1,), (1, 4)),
    # quot(trivext(zmod(8);resfield(2));17)
    ((), (1,), (2,), (3,), (1, 2), (1, 8), (1, 10), (1, 2, 8)),
    # quot(trivext(zmod(8);resfield(2));18)
    ((), (1,), (2,), (3,), (1, 2), (2, 8), (2, 9), (1, 2, 8)),
    # quot(trivext(zmod(8);resfield(2));19)
    ((), (1,), (2,), (3,), (1, 2), (3, 8), (3, 9), (1, 2, 8)),
    # quot(trivext(zmod(8);quotmod(regular;4));18)
    ((), (2,), (1,), (2, 8), (2, 9), (1, 8)),
    # quot(trivext(zmod(9);resfield(1));10)
    ((), (1,)),
    # quot(trivext(zmod(9);resfield(1));11)
    ((), (1,)),
    # quot(trivext(zmod(16);resfield(1));17)
    ((), (1,), (1, 8), (1, 4)),
    # quot(trivext(tpa(2,1,3);resfield(1));9)
    ((), (1,), (1, 4)),
    # quot(trivext(tpa(2,1,3);resfield(2));17)
    ((), (1,), (2,), (3,), (1, 2), (1, 8), (1, 10), (1, 2, 8)),
    # quot(trivext(tpa(2,1,3);resfield(2));18)
    ((), (1,), (2,), (3,), (1, 2), (2, 8), (2, 9), (1, 2, 8)),
    # quot(trivext(tpa(2,1,3);resfield(2));19)
    ((), (1,), (2,), (3,), (1, 2), (3, 8), (3, 9), (1, 2, 8)),
    # quot(trivext(tpa(2,1,3);quotmod(regular;4));18)
    ((), (2,), (1,), (2, 8), (2, 9), (1, 8)),
    # quot(trivext(tpa(2,1,4);resfield(1));17)
    ((), (1,), (1, 8), (1, 4)),
    # quot(trivext(product(zmod(2),zmod(2));regular);1)
    ((), (1,), (2,), (1, 2), (1, 4)),
    # quot(trivext(product(zmod(2),zmod(2));regular);2)
    ((), (1,), (4,), (1, 2), (1, 4)),
    # quot(trivext(trivext(zmod(4);regular);resfield(1));5)
    ((), (1,), (1, 2), (1, 8), (1, 10), (1, 2, 8)),
    # quot(trivext(trivext(zmod(4);resfield(2));resfield(1));17)
    ((), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (1, 2), (1, 4), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5), (1, 2, 4)),
    # quot(trivext(trivext(zmod(4);resfield(2));resfield(1));18)
    ((), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (1, 2), (1, 4), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5), (1, 2, 4)),
    # quot(trivext(trivext(zmod(4);resfield(2));resfield(1));19)
    ((), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (1, 2), (1, 4), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5), (1, 2, 4)),
    # quot(trivext(trivext(zmod(4);resfield(2));resfield(1));20)
    ((), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (1, 2), (1, 4), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5), (1, 2, 4)),
    # quot(trivext(trivext(zmod(4);resfield(2));resfield(1));21)
    ((), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (1, 2), (1, 4), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5), (1, 2, 4)),
    # quot(trivext(trivext(zmod(4);resfield(2));resfield(1));22)
    ((), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (1, 2), (1, 4), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5), (1, 2, 4)),
    # quot(trivext(trivext(zmod(4);resfield(2));resfield(1));23)
    ((), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (1, 2), (1, 4), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5), (1, 2, 4)),
    # quot(trivext(trivext(tpa(2,1,2);regular);resfield(1));5)
    ((), (1,), (1, 2), (1, 8), (1, 10), (1, 2, 8)),
)
