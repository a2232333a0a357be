"""`src/` carries no code that only tests use, and no dead import.

Every public module-level function in `amalgam` must have a caller
elsewhere in the package (its re-export in `__init__` does not count), or
appear in the README's "Library use" example; every private one, and every
method and property of a class, must have a reader in the package.  Every
name a module imports must be read in it.  Test oracles live in `tests/`.
The perfbench tracer patches layer entry points by name, so each of them
must still resolve.
"""
import ast
import importlib
import importlib.util
import inspect
import re
from functools import cached_property
from pathlib import Path

import amalgam
import amalgam.harness as harness
import amalgam.rings
from amalgam.expressions import Evaluator, ResfieldExpr, parse
from amalgam.modules import FiniteModule
from amalgam.rings import FiniteRing
from catalog_generator import TINY_PARAMS, generated_catalog

SRC = Path(amalgam.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


class _References(ast.NodeVisitor):
    """Loads of module-level names in one module, as ((defining module, name), node)."""

    def __init__(self, module: str, tree: ast.Module):
        self.module = module
        # `from .rings import product as ring_product` binds ring_product to (rings, product)
        self.imported = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
        }
        self.scopes: list[set[str]] = []
        self.found: list[tuple[tuple[str, str], ast.Name]] = []
        self.visit(tree)

    def _scope(self, node):
        bound = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
        bound |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        self.scopes.append(bound)
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = visit_Lambda = _scope

    def visit_Name(self, node: ast.Name):
        if isinstance(node.ctx, ast.Load) and not any(node.id in scope for scope in self.scopes):
            self.found.append((self.imported.get(node.id, (self.module, node.id)), node))


def _library_use_names() -> set[str]:
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library use", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    return set(re.findall(r"\w+", block))


def _src_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_public_function_has_a_caller():
    # private functions too: the README's "Library use" names only public ones
    trees = _src_trees()
    references = [ref for module, tree in trees.items() if module != "__init__" for ref in _References(module, tree).found]
    library_use = _library_use_names()
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name in library_use:
                continue
            own = set(map(id, ast.walk(node)))
            if not any(key == (module, node.name) and id(ref) not in own for key, ref in references):
                orphans.append(f"{module}.{node.name}")
    assert orphans == [], f"functions with no caller in src/ or the README: {orphans}"


# Methods and properties that no code in src/ reads, kept on purpose.
UNREAD_IN_SRC = {
    # the exhaustive axiom re-check that the tests run on every catalog ring and module
    "rings.FiniteRing.validate",
    "modules.FiniteModule.validate",
}


def test_every_method_and_property_has_a_reader():
    trees = _src_trees()
    reads = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    unread = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("__") and node.name.endswith("__"):
                    continue
                own = set(map(id, ast.walk(node)))
                if not any(read.attr == node.name and id(read) not in own for read in reads):
                    unread.append(f"{module}.{cls.name}.{node.name}")
    # an exemption whose method has gained a reader is dropped
    assert set(unread) == UNREAD_IN_SRC, f"methods with no reader in src/: {sorted(set(unread) - UNREAD_IN_SRC)}"


def _paths_where(predicate) -> list[str]:
    """module.Class.function of every src/ node the predicate accepts."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if predicate(child):
                found.append(".".join(path))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, [*path, child.name] if named else path)

    for module, tree in _src_trees().items():
        visit(tree, [module])
    return found


def test_only_the_expression_layer_spells_element_names():
    # rings and modules are tables: `Evaluator.element_names` spells each
    # element's name from the expression, and `encode` is its one caller
    for cls in (FiniteRing, FiniteModule):
        assert "element_names" not in inspect.signature(cls).parameters
    ev = Evaluator()
    base = ev.ring(parse("zmod(4)"))
    assert not hasattr(ev.ring(parse("trivext(zmod(4);resfield(1))")), "element_names")
    assert not hasattr(ev.module(ResfieldExpr(1), base), "element_names")

    def defines(node):
        return (isinstance(node, ast.FunctionDef) and node.name == "element_names") or (
            isinstance(node, (ast.arg, ast.keyword)) and node.arg == "element_names"
        )

    assert _paths_where(defines) == ["expressions.Evaluator"]
    uses = set(_paths_where(lambda node: isinstance(node, ast.Attribute) and node.attr == "element_names"))
    assert uses == {"expressions.Evaluator.element_names", "expressions.Evaluator._module_names", "cli._cmd_encode"}


def test_only_the_trusted_ideal_constructor_skips_init():
    # every `RingHom`, ring and module is made through `__init__`, which
    # validates it; the one bypass is `Ideal._from_mask`, for the masks the
    # package computed as ideals
    def names_new(node):
        return isinstance(node, ast.Attribute) and node.attr == "__new__" or (
            isinstance(node, ast.Constant) and node.value == "__new__"
        )

    assert _paths_where(names_new) == ["ideals.Ideal._from_mask"]


def test_only_instance_label_formats_an_instance_label():
    # `dup(A;gens)` exactly when f is the identity of A, decided in one place
    def formats_one(node):
        return (
            isinstance(node, ast.JoinedStr)
            and isinstance(node.values[0], ast.Constant)
            and node.values[0].value.startswith(("dup(", "amalg("))
        )

    assert set(_paths_where(formats_one)) == {"amalgamation.instance_label"}


def test_only_is_identity_compares_a_map_with_the_identity():
    def identity_test(node):
        if not isinstance(node, ast.Compare):
            return False
        operands = [node.left, *node.comparators]
        return any(isinstance(op, ast.Attribute) and op.attr == "map" for op in operands) and any(
            isinstance(op, ast.Call) and isinstance(op.func, ast.Attribute) and op.func.attr == "arange"
            for op in operands
        )

    assert _paths_where(identity_test) == ["rings.RingHom.is_identity"]


def test_readme_lists_the_cached_ring_attributes():
    text = (ROOT / "README.md").read_text()
    listed = text.split("cached\nas attributes:", 1)[1].split("; no cached value", 1)[0]
    cached = {name for name, value in vars(amalgam.rings.FiniteRing).items() if isinstance(value, cached_property)}
    assert set(re.findall(r"`(\w+)`", listed)) == cached


def test_every_import_is_read():
    unread = []
    for module, tree in _src_trees().items():
        if module == "__init__":  # its imports are the package's re-exports
            continue
        loads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                unread += [f"{module}.{name}" for name in names if name not in loads]
    assert unread == [], f"imported names never read: {unread}"


def test_every_error_class_is_raised():
    # a class of errors.py that no code under src/ raises, and that is the
    # base of no raised class, is surface nothing can reach
    trees = _src_trees()
    bases = {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for node in trees["errors"].body
        if isinstance(node, ast.ClassDef)
    }
    reached = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    reached.add(exc.id)
    frontier = reached & set(bases)
    while frontier:
        frontier = set().union(*(bases[name] for name in frontier)) & set(bases) - reached
        reached |= frontier
    assert set(bases) - reached == set(), f"error classes never raised: {sorted(set(bases) - reached)}"


def test_the_grammar_module_imports_nothing_from_properties():
    # the grammar builds rings and modules and decides none of their
    # properties; a module constructor derives what it needs itself
    imported = set()
    for node in ast.walk(_src_trees()["expressions"]):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.add(module)
            imported |= {f"{module}.{alias.name}".lstrip(".") for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {name for name in imported if re.match(r"(amalgam\.)?properties\b", name)}, sorted(imported)


def _perfbench_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_perfbench_entry_points_resolve():
    spans = _perfbench_spans()
    assert spans.ENTRY_POINTS
    for layer, module, path in spans.ENTRY_POINTS:
        target = importlib.import_module(f"amalgam.{module}")
        for part in path.split("."):
            assert hasattr(target, part), f"{layer}: amalgam.{module}.{path} does not resolve"
            target = getattr(target, part)


def test_perfbench_tracer_sees_the_sweep_through_its_entry_points():
    # the tracer resolves every entry point as `run.py --trace 1` does, and
    # the sweep reaches the traced names, cor-2.3's population included
    spans = _perfbench_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        catalog = generated_catalog(TINY_PARAMS)
        harness.verify_clauses(catalog, ["lemma-2.2", "cor-2.3", "chain"], with_search=True)
    finally:
        tracer.restore()
    seen = {spans.LAYERS[span[0]] for span in tracer.spans}
    assert {
        "harness.build_catalog",
        "harness.verify_clauses",
        "harness.verify_duplication_criterion",
        "amalgamation.amalgamate",
        "amalgamation.hypothesis_report",
        "properties.is_prufer",
    } <= seen


def test_perfbench_tracer_sees_the_fact_table_calls_of_a_report():
    # `RING_FACTS` looks `is_prufer` up at each call, so the tracer's
    # rebinding of the module name sees the call a report makes through it
    spans = _perfbench_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        amalgam.properties.property_report(amalgam.rings.zmod(8))
    finally:
        tracer.restore()
    seen = [spans.LAYERS[span[0]] for span in tracer.spans]
    assert seen.count("properties.property_report") == 1
    assert seen.count("properties.is_prufer") == 1
