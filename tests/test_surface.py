"""The public surface of `src/` carries no code that only tests use.

Every public module-level function in `amalgam` must have a caller
elsewhere in the package (its re-export in `__init__` does not count), or
appear in the README's "Library use" example.  Test oracles live in
`tests/`.  The perfbench tracer patches layer entry points by name, so each
of them must still resolve.
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


def test_every_public_function_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    references = [ref for module, tree in trees.items() if module != "__init__" for ref in _References(module, tree).found]
    library_use = _library_use_names()
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_") or node.name in library_use:
                continue
            own = set(map(id, ast.walk(node)))
            if not any(key == (module, node.name) and id(ref) not in own for key, ref in references):
                orphans.append(f"{module}.{node.name}")
    assert orphans == [], f"public functions with no caller in src/ or the README: {orphans}"


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
