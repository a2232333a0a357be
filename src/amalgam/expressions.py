"""Construction-expression grammar: parser, printer, evaluator.

The grammar is the table `SYNTAX`.  For each category (ring, module, hom)
it lists the constructors, each with its AST node class and the tokens
that follow its name.  The parser (`_Parser.node`), the printer
(`Expr.unparse`) and `GRAMMAR_TEXT`, the EBNF that `amalgam grammar`
prints, are all read off that table.

Element lists are canonical indices in the documented encodings; an empty
list generates the zero ideal (or submodule).  "proj" denotes the
projection of the enclosing quot-constructed target, "embed" the
idealization embedding of the enclosing trivext-constructed target, and
"compose(g,f)" applies f first.  Canonical printing is compact (no
whitespace); the parser accepts arbitrary whitespace.  Rings and modules
hold no element names; `Evaluator.element_names` spells them from the
expression, for `amalgam encode`.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import EvaluationError, ParseError
from .ideals import ideal_generated
from .modules import FiniteModule, module_quotient, ring_as_module, submodule_generated, trivial_extension
from .modules import vspace_over_residue
from .rings import (
    DEFAULT_SIZE_CAP,
    FiniteRing,
    RingHom,
    _check_cap,
    _cosets,
    _max_digits,
    _table_cap,
    product as ring_product,
    quotient,
    tpa_names,
    truncated_poly_algebra,
    zmod,
)
from .amalgamation import AmalgamationInstance, amalgamate, duplication

MAX_TEXT_BYTES = 64 * 1024
# Constructor nesting (open parentheses) across ring, module and hom
# expressions; parsing, evaluation and printing recurse once per level.
MAX_NESTING_DEPTH = 100


# -- abstract syntax -------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """An AST node.  Its fields are the values its `SYNTAX` tokens read, in order."""

    def unparse(self) -> str:
        name, tokens = _SPELLING[type(self)]
        values = iter([getattr(self, f.name) for f in fields(self)])
        out = [name]
        for kind in tokens:
            if kind in PUNCTUATION:
                out.append(kind)
            elif kind == ELEMS:
                out.append(_elems(next(values)))
            else:  # an integer, or a nested node printed by its own unparse
                out.append(str(next(values)))
        return "".join(out)

    def __str__(self) -> str:
        return self.unparse()


@dataclass(frozen=True)
class RingExpr(Expr):
    pass


@dataclass(frozen=True)
class ZmodExpr(RingExpr):
    n: int


@dataclass(frozen=True)
class TpaExpr(RingExpr):
    p: int
    k: int
    t: int


@dataclass(frozen=True)
class ProductExpr(RingExpr):
    left: RingExpr
    right: RingExpr


@dataclass(frozen=True)
class QuotExpr(RingExpr):
    ring: RingExpr
    gens: tuple[int, ...]


@dataclass(frozen=True)
class TrivextExpr(RingExpr):
    ring: RingExpr
    module: ModuleExpr


@dataclass(frozen=True)
class DupExpr(RingExpr):
    ring: RingExpr
    gens: tuple[int, ...]


@dataclass(frozen=True)
class AmalgExpr(RingExpr):
    base: RingExpr
    target: RingExpr
    hom: HomExpr
    gens: tuple[int, ...]


@dataclass(frozen=True)
class ModuleExpr(Expr):
    pass


@dataclass(frozen=True)
class RegularExpr(ModuleExpr):
    pass


@dataclass(frozen=True)
class ResfieldExpr(ModuleExpr):
    dim: int


@dataclass(frozen=True)
class QuotmodExpr(ModuleExpr):
    module: ModuleExpr
    gens: tuple[int, ...]


@dataclass(frozen=True)
class HomExpr(Expr):
    pass


@dataclass(frozen=True)
class IdHomExpr(HomExpr):
    pass


@dataclass(frozen=True)
class ProjHomExpr(HomExpr):
    pass


@dataclass(frozen=True)
class EmbedHomExpr(HomExpr):
    pass


@dataclass(frozen=True)
class ComposeHomExpr(HomExpr):
    outer: HomExpr
    inner: HomExpr


def _elems(gens: tuple[int, ...]) -> str:
    return ",".join(str(g) for g in gens)


# -- the grammar -------------------------------------------------------------------

# Token kinds after a constructor name: a punctuation literal, an integer,
# an integer that must be >= 1 (refused at the constructor's name), an
# element list, or a nested category.
PUNCTUATION = ("(", ")", ",", ";")
INT, POSITIVE_INT, ELEMS = "INT", "INT>=1", "elems"

SYNTAX: dict[str, dict[str, tuple[type[Expr], tuple[str, ...]]]] = {
    "ring": {
        "zmod": (ZmodExpr, ("(", POSITIVE_INT, ")")),
        "tpa": (TpaExpr, ("(", INT, ",", INT, ",", INT, ")")),
        "product": (ProductExpr, ("(", "ring", ",", "ring", ")")),
        "quot": (QuotExpr, ("(", "ring", ";", ELEMS, ")")),
        "trivext": (TrivextExpr, ("(", "ring", ";", "module", ")")),
        "dup": (DupExpr, ("(", "ring", ";", ELEMS, ")")),
        "amalg": (AmalgExpr, ("(", "ring", ",", "ring", ",", "hom", ";", ELEMS, ")")),
    },
    "module": {
        "regular": (RegularExpr, ()),
        "resfield": (ResfieldExpr, ("(", POSITIVE_INT, ")")),
        "quotmod": (QuotmodExpr, ("(", "module", ";", ELEMS, ")")),
    },
    "hom": {
        "id": (IdHomExpr, ()),
        "proj": (ProjHomExpr, ()),
        "embed": (EmbedHomExpr, ()),
        "compose": (ComposeHomExpr, ("(", "hom", ",", "hom", ")")),
    },
}

_SPELLING = {cls: (name, tokens) for table in SYNTAX.values() for name, (cls, tokens) in table.items()}


def _alternative(name: str, tokens: tuple[str, ...]) -> str:
    words = [f'"{name}"'] + [f'"{k}"' if k in PUNCTUATION else INT if k == POSITIVE_INT else k for k in tokens]
    # adjacent literals merge into one quoted word: "zmod" "(" -> "zmod("
    return " ".join(words).replace('" "', "")


def _grammar_text() -> str:
    """The EBNF of `SYNTAX`; a category's alternatives share one line when it fits in 80 columns."""
    lines = []
    for category, table in SYNTAX.items():
        alternatives = [_alternative(name, tokens) for name, (_cls, tokens) in table.items()]
        head = f"{category:<6} := "
        line = head + " | ".join(alternatives)
        lines.append(line if len(line) <= 80 else head + "\n        | ".join(alternatives))
    lines.append(f'{ELEMS:<6} := [ INT {{ "," INT }} ]')
    return "\n".join(lines) + "\n"


GRAMMAR_TEXT = _grammar_text()


# -- tokenizer / parser ------------------------------------------------------------

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([(),;])|(\s+)|(.)")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int, int]] = []
        self._tokenize()
        self.i = 0

    def _tokenize(self) -> None:
        line, col, depth = 1, 1, 0
        for m in _TOKEN_RE.finditer(self.text):
            lexeme = m.group(0)
            if m.group(1):
                self.tokens.append(("INT", lexeme, line, col))
            elif m.group(2):
                self.tokens.append(("NAME", lexeme, line, col))
            elif m.group(3):
                depth += {"(": 1, ")": -1}.get(lexeme, 0)
                if depth > MAX_NESTING_DEPTH:
                    raise ParseError(
                        f"expression nests deeper than {MAX_NESTING_DEPTH} levels", line, col, ("shallower nesting",)
                    )
                self.tokens.append((lexeme, lexeme, line, col))
            elif m.group(5):
                raise ParseError(
                    f"unexpected character {lexeme!r}", line, col, ("INT", "NAME", "punctuation")
                )
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                col = len(lexeme) - lexeme.rfind("\n")
            else:
                col += len(lexeme)
        self.tokens.append(("EOF", "", line, col))

    # -- token helpers --

    def _peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.i]

    def _next(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect(self, kind: str, expected: tuple[str, ...]) -> tuple[str, str, int, int]:
        tok = self._peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3], expected)
        return self._next()

    def _int(self) -> int:
        tok = self._expect("INT", ("INT",))
        try:
            return int(tok[1])
        except ValueError:  # beyond the interpreter's integer digit limit
            raise ParseError(
                f"integer literal of {len(tok[1])} digits is too long", tok[2], tok[3], ("shorter INT",)
            ) from None

    def _elems(self) -> tuple[int, ...]:
        if self._peek()[0] != "INT":
            return ()
        out = [self._int()]
        while self._peek()[0] == ",":
            self._next()
            out.append(self._int())
        return tuple(out)

    # -- grammar --

    def node(self, category: str) -> Expr:
        """One constructor of `category`, read by its `SYNTAX` entry."""
        table = SYNTAX[category]
        names = tuple(table)
        tok = self._expect("NAME", names)
        if tok[1] not in table:
            raise ParseError(f"unknown {category} constructor {tok[1]!r}", tok[2], tok[3], names)
        cls, tokens = table[tok[1]]
        values: list[object] = []
        for kind in tokens:
            if kind in PUNCTUATION:
                self._expect(kind, (kind,))
            elif kind == ELEMS:
                values.append(self._elems())
            elif kind in SYNTAX:
                values.append(self.node(kind))
            else:
                value = self._int()
                if kind == POSITIVE_INT and value < 1:
                    raise ParseError(f"{tok[1]} argument must be >= 1", tok[2], tok[3], ("INT >= 1",))
                values.append(value)
        return cls(*values)


def parse(text: str) -> RingExpr:
    """Parse expression text into an AST; raises ParseError with diagnostics."""
    if len(text.encode("utf-8", errors="replace")) > MAX_TEXT_BYTES:
        raise ParseError("expression text exceeds 64 KiB", 1, 1, ("shorter input",))
    parser = _Parser(text)
    expr = parser.node("ring")
    tok = parser._peek()
    if tok[0] != "EOF":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3], ("end of input",))
    return expr


# -- evaluation ---------------------------------------------------------------------


def _cosets_named(names: list[str], reps: np.ndarray) -> list[str]:
    return [f"[{names[r]}]" for r in reps]


class Evaluator:
    """Builds rings/instances from ASTs, memoizing shared subexpressions.

    Memoization makes structurally identical subexpressions evaluate to the
    *same* ring object.  `hom` resolves every hom spec against the target's
    construction path: building a quot(...) or trivext(...) target keeps its
    projection or embedding, and "proj"/"embed" read that hom back.
    """

    def __init__(self, size_cap: int = DEFAULT_SIZE_CAP):
        self.size_cap = size_cap
        self._rings: dict[RingExpr, FiniteRing] = {}
        # the proj of each quot(...) and the embed of each trivext(...) built
        self._homs: dict[RingExpr, RingHom] = {}
        self._instances: dict[RingExpr, AmalgamationInstance] = {}
        self._modules: dict[tuple[ModuleExpr, int], FiniteModule] = {}
        self._names: dict[RingExpr, list[str]] = {}

    def ring(self, expr: RingExpr) -> FiniteRing:
        if expr in self._rings:
            return self._rings[expr]
        built = self._build(expr)
        self._rings[expr] = built
        return built

    def instance(self, expr: RingExpr) -> AmalgamationInstance:
        """The amalgamation instance behind a dup/amalg expression, its ring
        not yet built."""
        if expr in self._instances:
            return self._instances[expr]
        if isinstance(expr, DupExpr):
            base = self.ring(expr.ring)
            inst = duplication(base, ideal_generated(base, expr.gens), self.size_cap)
        elif isinstance(expr, AmalgExpr):
            base = self.ring(expr.base)
            target = self.ring(expr.target)
            _, f = self.hom(expr.hom, expr.target, base)
            inst = amalgamate(base, target, f, ideal_generated(target, expr.gens), self.size_cap)
        else:  # refused by its node type, before any of it is evaluated
            raise EvaluationError(f"{expr.unparse()} is not an amalgamation expression")
        self._instances[expr] = inst
        return inst

    def element_names(self, expr: RingExpr) -> list[str]:
        """The name of each element of `expr`'s ring, by index, spelled from
        the expression: zmod residues and tpa polynomials as themselves,
        product and trivext pairs as (l,r) and (a|e), dup and amalg pairs as
        (a,b) through the instance's pA and pB, and a coset of quot, resfield
        or quotmod as [x], x its least member."""
        if expr in self._names:
            return self._names[expr]
        ring = self.ring(expr)
        if isinstance(expr, ZmodExpr):
            names = [str(i) for i in range(ring.size)]
        elif isinstance(expr, TpaExpr):
            names = tpa_names(expr.p, expr.k, expr.t)
        elif isinstance(expr, ProductExpr):
            names = [f"({a},{b})" for a in self.element_names(expr.left) for b in self.element_names(expr.right)]
        elif isinstance(expr, QuotExpr):
            _, reps = np.unique(self._homs[expr].map, return_index=True)  # first index = least member
            names = _cosets_named(self.element_names(expr.ring), reps)
        elif isinstance(expr, TrivextExpr):
            module = self._module_names(expr.module, expr.ring)
            names = [f"({a}|{e})" for a in self.element_names(expr.ring) for e in module]
        else:
            inst = self.instance(expr)
            base, target = (expr.ring, expr.ring) if isinstance(expr, DupExpr) else (expr.base, expr.target)
            first, second = self.element_names(base), self.element_names(target)
            names = [f"({first[a]},{second[b]})" for a, b in zip(inst.to_base.map, inst.to_target.map)]
        self._names[expr] = names
        return names

    def _module_names(self, expr: ModuleExpr, ring_expr: RingExpr) -> list[str]:
        """The name of each element of `expr`'s module over `ring_expr`'s ring,
        by index; resfield(d) spells a vector of d residues as (r1,...,rd),
        r1 least significant."""
        base = self.ring(ring_expr)
        if isinstance(expr, RegularExpr):
            return self.element_names(ring_expr)
        if isinstance(expr, ResfieldExpr):
            _, reps = _cosets(base.add, np.flatnonzero(base.maximal_masks[0]))
            field = _cosets_named(self.element_names(ring_expr), reps)
            if expr.dim == 1:
                return field
            # index sum_k d_k q^k; product() varies its last coordinate fastest
            return ["(" + ",".join(reversed(v)) + ")" for v in itertools.product(field, repeat=expr.dim)]
        inner = self.module(expr.module, base)
        _, reps = _cosets(inner.add, submodule_generated(inner, expr.gens))
        return _cosets_named(self._module_names(expr.module, ring_expr), reps)

    def _build(self, expr: RingExpr) -> FiniteRing:
        if isinstance(expr, ZmodExpr):
            return zmod(expr.n, self.size_cap)
        if isinstance(expr, TpaExpr):
            try:
                return truncated_poly_algebra(expr.p, expr.k, expr.t, self.size_cap)
            except ValueError as exc:
                raise EvaluationError(str(exc)) from exc
        if isinstance(expr, ProductExpr):
            return ring_product(self.ring(expr.left), self.ring(expr.right), self.size_cap)
        if isinstance(expr, QuotExpr):
            base = self.ring(expr.ring)
            quot, self._homs[expr] = quotient(base, ideal_generated(base, expr.gens))
            return quot
        if isinstance(expr, TrivextExpr):
            base = self.ring(expr.ring)
            size = self._module_size(expr.module, base)
            if size is not None:  # refuse |A| |M| past the cap before M is built
                _check_cap(base.size * size, self.size_cap, f"trivext({base.label};{expr.module.unparse()})")
            module = self.module(expr.module, base)
            ext, self._homs[expr] = trivial_extension(base, module, self.size_cap)
            return ext
        if isinstance(expr, (DupExpr, AmalgExpr)):
            return self.instance(expr).ring
        raise EvaluationError(f"unsupported expression {expr!r}")

    def _module_size(self, expr: ModuleExpr, base: FiniteRing) -> int | None:
        """|M| when it is known without building M: regular, or resfield(d)
        within the cap over a local base.  None where building M refuses it
        on its own, and for every quotmod, whose size needs M."""
        if isinstance(expr, RegularExpr):
            return base.size
        if isinstance(expr, ResfieldExpr) and base.is_local:
            q = base.size // int(base.maximal_masks[0].sum())
            if expr.dim <= _max_digits(q, _table_cap(self.size_cap)):
                return q**expr.dim
        return None

    def module(self, expr: ModuleExpr, base: FiniteRing) -> FiniteModule:
        key = (expr, id(base))
        if key in self._modules:
            return self._modules[key]
        built = self._build_module(expr, base)
        self._modules[key] = built
        return built

    def _build_module(self, expr: ModuleExpr, base: FiniteRing) -> FiniteModule:
        if isinstance(expr, RegularExpr):
            return ring_as_module(base)
        if isinstance(expr, ResfieldExpr):
            return vspace_over_residue(base, expr.dim, self.size_cap)
        if isinstance(expr, QuotmodExpr):
            return module_quotient(self.module(expr.module, base), expr.gens)
        raise EvaluationError(f"unsupported module expression {expr!r}")

    def hom(self, hexpr: HomExpr, target_expr: RingExpr, source: FiniteRing | None = None) -> tuple[RingExpr, RingHom]:
        """The source expression and hom that a spec names into the target.

        "id" maps the target to itself, "proj" needs a quot(...) target and
        "embed" a trivext(...) one; "compose(g,f)" reads g against the target
        and f against g's source.  A given `source` ring is checked at the
        innermost hom only; without one, the hom maps out of its source
        expression's ring."""
        target = self.ring(target_expr)
        if isinstance(hexpr, ComposeHomExpr):
            mid_expr, outer = self.hom(hexpr.outer, target_expr)
            source_expr, inner = self.hom(hexpr.inner, mid_expr, source)
            return source_expr, RingHom(inner.source, target, outer.map[inner.map], label=hexpr.unparse())
        if isinstance(hexpr, IdHomExpr):
            source = target if source is None else source
            if source.size != target.size:
                raise EvaluationError("id hom requires equal-size rings")
            return target_expr, RingHom(source, target, np.arange(source.size), label="id")
        if isinstance(hexpr, ProjHomExpr):
            if not isinstance(target_expr, QuotExpr):
                raise EvaluationError("proj hom requires a quot(...) target")
            base = "quotient"
        elif isinstance(hexpr, EmbedHomExpr):
            if not isinstance(target_expr, TrivextExpr):
                raise EvaluationError("embed hom requires a trivext(...) target")
            base = "extension"
        else:
            raise EvaluationError(f"unsupported hom expression {hexpr!r}")
        hom = self._homs[target_expr]
        if source is None or hom.source is source:
            return target_expr.ring, hom
        if hom.source.same_tables(source):
            return target_expr.ring, RingHom(source, target, hom.map, label=hexpr.unparse())
        raise EvaluationError(f"{hexpr.unparse()} hom source does not match the {base} base")
