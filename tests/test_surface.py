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
import re
from pathlib import Path

import amalgam
import amalgam.harness as harness

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
    # pA and its kernel {0} x J, which the README's "Library use" names and the test oracles read
    "amalgamation.AmalgamationInstance.to_base",
    "amalgamation.AmalgamationInstance.zero_j",
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
    params = harness.CatalogParams(
        zmod_max=4, tpa_carrier_max=4, product_max=4, trivext_max=8, quotient_base_max=4, instance_max=8
    )
    try:
        tracer.install()
        catalog = harness.build_catalog(params)
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
