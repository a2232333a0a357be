"""Construction-expression grammar: parser, printer, evaluator.

Grammar (EBNF):

    ring   := "zmod(" INT ")"
            | "tpa(" INT "," INT "," INT ")"
            | "product(" ring "," ring ")"
            | "quot(" ring ";" elems ")"
            | "trivext(" ring ";" module ")"
            | "dup(" ring ";" elems ")"
            | "amalg(" ring "," ring "," hom ";" elems ")"
    module := "regular" | "resfield(" INT ")" | "quotmod(" module ";" elems ")"
    hom    := "id" | "proj" | "embed" | "compose(" hom "," hom ")"
    elems  := [ INT { "," INT } ]

Element lists are canonical indices in the documented encodings; an empty
list generates the zero ideal (or submodule).  "proj" denotes the
projection of the enclosing quot-constructed target, "embed" the
idealization embedding of the enclosing trivext-constructed target, and
"compose(g,f)" applies f first.  Canonical printing is compact (no
whitespace); the parser accepts arbitrary whitespace.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ParseError
from .ideals import Ideal, ideal_generated
from .modules import (
    FiniteModule,
    module_quotient,
    ring_as_module,
    submodule_generated,
    vspace_over_residue,
)
from .properties import is_local
from .rings import (
    DEFAULT_SIZE_CAP,
    FiniteRing,
    RingHom,
    product as ring_product,
    quotient,
    truncated_poly_algebra,
    zmod,
)
from .amalgamation import AmalgamationInstance, amalgamate, duplication
from .modules import trivial_extension

MAX_TEXT_BYTES = 64 * 1024
# Constructor nesting (open parentheses) across ring, module and hom
# expressions; parsing, evaluation and printing recurse once per level.
MAX_NESTING_DEPTH = 100

GRAMMAR_TEXT = """\
ring   := "zmod(" INT ")"
        | "tpa(" INT "," INT "," INT ")"
        | "product(" ring "," ring ")"
        | "quot(" ring ";" elems ")"
        | "trivext(" ring ";" module ")"
        | "dup(" ring ";" elems ")"
        | "amalg(" ring "," ring "," hom ";" elems ")"
module := "regular" | "resfield(" INT ")" | "quotmod(" module ";" elems ")"
hom    := "id" | "proj" | "embed" | "compose(" hom "," hom ")"
elems  := [ INT { "," INT } ]
"""


# -- abstract syntax -------------------------------------------------------------


@dataclass(frozen=True)
class RingExpr:
    def unparse(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.unparse()


@dataclass(frozen=True)
class ZmodExpr(RingExpr):
    n: int

    def unparse(self) -> str:
        return f"zmod({self.n})"


@dataclass(frozen=True)
class TpaExpr(RingExpr):
    p: int
    k: int
    t: int

    def unparse(self) -> str:
        return f"tpa({self.p},{self.k},{self.t})"


@dataclass(frozen=True)
class ProductExpr(RingExpr):
    left: RingExpr
    right: RingExpr

    def unparse(self) -> str:
        return f"product({self.left.unparse()},{self.right.unparse()})"


@dataclass(frozen=True)
class QuotExpr(RingExpr):
    ring: RingExpr
    gens: tuple[int, ...]

    def unparse(self) -> str:
        return f"quot({self.ring.unparse()};{_elems(self.gens)})"


@dataclass(frozen=True)
class TrivextExpr(RingExpr):
    ring: RingExpr
    module: ModuleExpr

    def unparse(self) -> str:
        return f"trivext({self.ring.unparse()};{self.module.unparse()})"


@dataclass(frozen=True)
class DupExpr(RingExpr):
    ring: RingExpr
    gens: tuple[int, ...]

    def unparse(self) -> str:
        return f"dup({self.ring.unparse()};{_elems(self.gens)})"


@dataclass(frozen=True)
class AmalgExpr(RingExpr):
    base: RingExpr
    target: RingExpr
    hom: HomExpr
    gens: tuple[int, ...]

    def unparse(self) -> str:
        return (
            f"amalg({self.base.unparse()},{self.target.unparse()},"
            f"{self.hom.unparse()};{_elems(self.gens)})"
        )


@dataclass(frozen=True)
class ModuleExpr:
    def unparse(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.unparse()


@dataclass(frozen=True)
class RegularExpr(ModuleExpr):
    def unparse(self) -> str:
        return "regular"


@dataclass(frozen=True)
class ResfieldExpr(ModuleExpr):
    dim: int

    def unparse(self) -> str:
        return f"resfield({self.dim})"


@dataclass(frozen=True)
class QuotmodExpr(ModuleExpr):
    module: ModuleExpr
    gens: tuple[int, ...]

    def unparse(self) -> str:
        return f"quotmod({self.module.unparse()};{_elems(self.gens)})"


@dataclass(frozen=True)
class HomExpr:
    def unparse(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.unparse()


@dataclass(frozen=True)
class IdHomExpr(HomExpr):
    def unparse(self) -> str:
        return "id"


@dataclass(frozen=True)
class ProjHomExpr(HomExpr):
    def unparse(self) -> str:
        return "proj"


@dataclass(frozen=True)
class EmbedHomExpr(HomExpr):
    def unparse(self) -> str:
        return "embed"


@dataclass(frozen=True)
class ComposeHomExpr(HomExpr):
    outer: HomExpr
    inner: HomExpr

    def unparse(self) -> str:
        return f"compose({self.outer.unparse()},{self.inner.unparse()})"


def _elems(gens: tuple[int, ...]) -> str:
    return ",".join(str(g) for g in gens)


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

    def ring(self) -> RingExpr:
        tok = self._expect("NAME", ("zmod", "tpa", "product", "quot", "trivext", "dup", "amalg"))
        name = tok[1]
        if name == "zmod":
            self._expect("(", ("(",))
            n = self._int()
            if n < 1:
                raise ParseError("zmod argument must be >= 1", tok[2], tok[3], ("INT >= 1",))
            self._expect(")", (")",))
            return ZmodExpr(n)
        if name == "tpa":
            self._expect("(", ("(",))
            p = self._int()
            self._expect(",", (",",))
            k = self._int()
            self._expect(",", (",",))
            t = self._int()
            self._expect(")", (")",))
            return TpaExpr(p, k, t)
        if name == "product":
            self._expect("(", ("(",))
            left = self.ring()
            self._expect(",", (",",))
            right = self.ring()
            self._expect(")", (")",))
            return ProductExpr(left, right)
        if name == "quot":
            self._expect("(", ("(",))
            ring = self.ring()
            self._expect(";", (";",))
            gens = self._elems()
            self._expect(")", (")",))
            return QuotExpr(ring, gens)
        if name == "trivext":
            self._expect("(", ("(",))
            ring = self.ring()
            self._expect(";", (";",))
            module = self.module()
            self._expect(")", (")",))
            return TrivextExpr(ring, module)
        if name == "dup":
            self._expect("(", ("(",))
            ring = self.ring()
            self._expect(";", (";",))
            gens = self._elems()
            self._expect(")", (")",))
            return DupExpr(ring, gens)
        if name == "amalg":
            self._expect("(", ("(",))
            base = self.ring()
            self._expect(",", (",",))
            target = self.ring()
            self._expect(",", (",",))
            homx = self.hom()
            self._expect(";", (";",))
            gens = self._elems()
            self._expect(")", (")",))
            return AmalgExpr(base, target, homx, gens)
        raise ParseError(
            f"unknown ring constructor {name!r}",
            tok[2],
            tok[3],
            ("zmod", "tpa", "product", "quot", "trivext", "dup", "amalg"),
        )

    def module(self) -> ModuleExpr:
        tok = self._expect("NAME", ("regular", "resfield", "quotmod"))
        name = tok[1]
        if name == "regular":
            return RegularExpr()
        if name == "resfield":
            self._expect("(", ("(",))
            dim = self._int()
            if dim < 1:
                raise ParseError("resfield argument must be >= 1", tok[2], tok[3], ("INT >= 1",))
            self._expect(")", (")",))
            return ResfieldExpr(dim)
        if name == "quotmod":
            self._expect("(", ("(",))
            module = self.module()
            self._expect(";", (";",))
            gens = self._elems()
            self._expect(")", (")",))
            return QuotmodExpr(module, gens)
        raise ParseError(
            f"unknown module constructor {name!r}", tok[2], tok[3], ("regular", "resfield", "quotmod")
        )

    def hom(self) -> HomExpr:
        tok = self._expect("NAME", ("id", "proj", "embed", "compose"))
        name = tok[1]
        if name == "id":
            return IdHomExpr()
        if name == "proj":
            return ProjHomExpr()
        if name == "embed":
            return EmbedHomExpr()
        if name == "compose":
            self._expect("(", ("(",))
            outer = self.hom()
            self._expect(",", (",",))
            inner = self.hom()
            self._expect(")", (")",))
            return ComposeHomExpr(outer, inner)
        raise ParseError(
            f"unknown hom constructor {name!r}", tok[2], tok[3], ("id", "proj", "embed", "compose")
        )


def parse(text: str) -> RingExpr:
    """Parse expression text into an AST; raises ParseError with diagnostics."""
    if len(text.encode("utf-8", errors="replace")) > MAX_TEXT_BYTES:
        raise ParseError("expression text exceeds 64 KiB", 1, 1, ("shorter input",))
    parser = _Parser(text)
    expr = parser.ring()
    tok = parser._peek()
    if tok[0] != "EOF":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3], ("end of input",))
    return expr


# -- evaluation ---------------------------------------------------------------------


class Evaluator:
    """Builds rings/instances from ASTs, memoizing shared subexpressions.

    Memoization makes structurally identical subexpressions evaluate to the
    *same* ring object, which is what lets "proj"/"embed" hom specs resolve
    against the target's construction path.
    """

    def __init__(self, size_cap: int = DEFAULT_SIZE_CAP):
        self.size_cap = size_cap
        self._rings: dict[RingExpr, FiniteRing] = {}
        self._aux: dict[RingExpr, object] = {}
        self._instances: dict[RingExpr, AmalgamationInstance] = {}
        self._modules: dict[tuple[ModuleExpr, int], FiniteModule] = {}

    def ring(self, expr: RingExpr) -> FiniteRing:
        if expr in self._rings:
            return self._rings[expr]
        built = self._build(expr)
        self._rings[expr] = built
        return built

    def instance(self, expr: RingExpr) -> AmalgamationInstance:
        """The amalgamation instance behind a dup/amalg expression."""
        self.ring(expr)
        if expr not in self._instances:
            raise EvaluationError(f"{expr.unparse()} is not an amalgamation expression")
        return self._instances[expr]

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
            ideal = self._ideal(base, expr.gens)
            quot, proj = quotient(base, ideal)
            self._aux[expr] = proj
            return quot
        if isinstance(expr, TrivextExpr):
            base = self.ring(expr.ring)
            module = self.module(expr.module, base)
            ext, embed, zxe = trivial_extension(base, module, self.size_cap)
            self._aux[expr] = (embed, zxe)
            return ext
        if isinstance(expr, DupExpr):
            base = self.ring(expr.ring)
            inst = duplication(base, self._ideal(base, expr.gens), self.size_cap)
            self._instances[expr] = inst
            return inst.ring
        if isinstance(expr, AmalgExpr):
            base = self.ring(expr.base)
            target = self.ring(expr.target)
            f = self.resolve_hom(expr.hom, base, expr.target)
            ideal = self._ideal(target, expr.gens)
            inst = amalgamate(base, target, f, ideal, self.size_cap)
            self._instances[expr] = inst
            return inst.ring
        raise EvaluationError(f"unsupported expression {expr!r}")

    def _ideal(self, ring: FiniteRing, gens: tuple[int, ...]) -> Ideal:
        for g in gens:
            if not 0 <= g < ring.size:
                raise EvaluationError(
                    f"generator index {g} out of range for {ring.label} (size {ring.size})"
                )
        return ideal_generated(ring, gens)

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
            m = is_local(base)
            if m is None:
                raise EvaluationError(
                    f"resfield over {base.label} needs a local base ring"
                )
            return vspace_over_residue(base, m, expr.dim, self.size_cap)
        if isinstance(expr, QuotmodExpr):
            inner = self.module(expr.module, base)
            for g in expr.gens:
                if not 0 <= g < inner.size:
                    raise EvaluationError(
                        f"module generator {g} out of range for {inner.label}"
                    )
            sub = submodule_generated(inner, expr.gens)
            return module_quotient(inner, sub, _elems(expr.gens))
        raise EvaluationError(f"unsupported module expression {expr!r}")

    def resolve_hom(self, hexpr: HomExpr, source: FiniteRing, target_expr: RingExpr) -> RingHom:
        target = self.ring(target_expr)
        if isinstance(hexpr, IdHomExpr):
            if source.size != target.size:
                raise EvaluationError("id hom requires equal-size rings")
            return RingHom(source, target, np.arange(source.size), label="id")
        if isinstance(hexpr, ProjHomExpr):
            if not isinstance(target_expr, QuotExpr):
                raise EvaluationError("proj hom requires a quot(...) target")
            proj: RingHom = self._aux[target_expr]  # type: ignore[assignment]
            if proj.source is source:
                return proj
            if proj.source.same_tables(source):
                return RingHom(source, target, proj.map, label="proj")
            raise EvaluationError("proj hom source does not match the quotient base")
        if isinstance(hexpr, EmbedHomExpr):
            if not isinstance(target_expr, TrivextExpr):
                raise EvaluationError("embed hom requires a trivext(...) target")
            embed: RingHom = self._aux[target_expr][0]  # type: ignore[index]
            if embed.source is source:
                return embed
            if embed.source.same_tables(source):
                return RingHom(source, target, embed.map, label="embed")
            raise EvaluationError("embed hom source does not match the extension base")
        if isinstance(hexpr, ComposeHomExpr):
            mid_expr = self._peel(hexpr.outer, target_expr)
            inner = self.resolve_hom(hexpr.inner, source, mid_expr)
            outer = self.resolve_hom(hexpr.outer, self.ring(mid_expr), target_expr)
            return RingHom(source, target, outer.map[inner.map], label=hexpr.unparse())
        raise EvaluationError(f"unsupported hom expression {hexpr!r}")

    def _peel(self, hexpr: HomExpr, target_expr: RingExpr) -> RingExpr:
        """The source expression of a hom spec read against the target's tree."""
        if isinstance(hexpr, IdHomExpr):
            return target_expr
        if isinstance(hexpr, ProjHomExpr):
            if not isinstance(target_expr, QuotExpr):
                raise EvaluationError("proj hom requires a quot(...) target")
            return target_expr.ring
        if isinstance(hexpr, EmbedHomExpr):
            if not isinstance(target_expr, TrivextExpr):
                raise EvaluationError("embed hom requires a trivext(...) target")
            return target_expr.ring
        if isinstance(hexpr, ComposeHomExpr):
            return self._peel(hexpr.inner, self._peel(hexpr.outer, target_expr))
        raise EvaluationError(f"unsupported hom expression {hexpr!r}")
