"""The package's import layering, read from the source.

``analysis`` is the one module that maps a system to its shared
quantities; ``spectral`` and ``measure`` sit strictly below it and take
the matrix, root and graphs they read.  The public entry points that take
a system live in ``analysis`` and keep their signatures.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import tracesys

SRC = Path(tracesys.__file__).resolve().parent
MODULES = {p.stem: p for p in sorted(SRC.glob("*.py"))}

# the README module map, bottom up; a module imports only from its own
# layer or the layers below it
LAYERS = (
    ("errors", "poly", "graphs"),
    ("monoid",),
    ("system",),
    ("spectral",),
    ("measure",),
    ("analysis",),
    ("report", "oracle", "sampling"),
    ("cli",),
)
RANK = {m: i for i, layer in enumerate(LAYERS) for m in layer}

ENTRY_POINTS = {
    "characteristic_root": "(system: 'ConcurrentSystem', precision: 'Fraction' = "
    "Fraction(1, 1000000000000)) -> 'CharacteristicRoot'",
    "growth_eval": "(system: 'ConcurrentSystem', t: 'Fraction | int', "
    "root: 'CharacteristicRoot | None' = None) -> 'list[list[Fraction]]'",
    "verify_inversion": "(system: 'ConcurrentSystem', order: 'int') -> 'InversionReport'",
    "spectral_property_report": "(system: 'ConcurrentSystem', precision: 'Fraction' = "
    "Fraction(1, 1000000000000)) -> 'SpectralPropertyReport'",
    "uniform_measure": "(system: 'ConcurrentSystem', precision: 'Fraction' = "
    "Fraction(1, 1000000000000)) -> 'UniformMeasure'",
    "uniqueness_diagnostics": "(measure: 'UniformMeasure') -> 'UniquenessReport'",
}


def _tree(name: str) -> ast.Module:
    return ast.parse(MODULES[name].read_text(encoding="utf-8"))


def _is_type_checking(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
    )


def _imports(node: ast.AST):
    """Import statements under ``node``, outside ``if TYPE_CHECKING:`` blocks."""
    for child in ast.iter_child_nodes(node):
        if _is_type_checking(child):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _imports(child)


def _intra_package_imports(name: str) -> set[str]:
    """The tracesys modules that module ``name`` imports."""
    out = set()
    for node in _imports(_tree(name)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("tracesys.")}
            continue
        if node.level == 0 and not (node.module or "").startswith("tracesys"):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0:
            parts = parts[1:]
        if parts and parts[0]:
            out.add(parts[0])
        else:  # from . import a, b
            out |= {a.name for a in node.names if a.name in MODULES}
    return out - {name}


GRAPH = {name: _intra_package_imports(name) for name in MODULES}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    for node in ast.walk(_tree(name)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner = [n.lineno for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not inner, f"{name}.py: import inside {getattr(node, 'name', 'lambda')} at {inner}"


def test_import_graph_is_acyclic():
    state: dict[str, int] = {}  # 1 on the current path, 2 finished

    def visit(name, path):
        state[name] = 1
        for dep in sorted(GRAPH[name]):
            assert state.get(dep) != 1, "import cycle: " + " -> ".join(path + [dep])
            if dep not in state:
                visit(dep, path + [dep])
        state[name] = 2

    for name in sorted(GRAPH):
        if name not in state:
            visit(name, [name])


def test_imports_follow_the_layer_order():
    assert set(RANK) <= set(MODULES)
    for name, deps in GRAPH.items():
        if name in RANK:
            above = sorted(d for d in deps if RANK.get(d, -1) > RANK[name])
            assert not above, f"{name} imports the higher layer(s) {above}"


@pytest.mark.parametrize("name", ["spectral", "measure"])
def test_lower_layer_never_names_the_analysis(name):
    text = MODULES[name].read_text(encoding="utf-8")
    assert not re.search(r"\b[Aa]nalysis\b", text)
    assert "analysis" not in GRAPH[name]


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_live_in_analysis_with_their_signature(name):
    fn = getattr(tracesys, name)
    assert fn.__module__ == "tracesys.analysis"
    assert str(inspect.signature(fn)) == ENTRY_POINTS[name]


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds in ``tree``, with its line; ``__future__``
    imports bind none."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Import):
            out.update(((a.asname or a.name).split(".")[0], node.lineno) for a in node.names)
    return out


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, including those inside quoted annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [
        a for node in ast.walk(tree)
        for a in [getattr(node, "annotation", None), getattr(node, "returns", None)] if a
    ]
    for node in (n for a in annotations for n in ast.walk(a)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            expr = ast.parse(node.value, mode="eval")
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"__init__"}))
def test_no_unused_import(name):
    tree = _tree(name)
    used = _used_names(tree)
    unused = sorted((line, n) for n, line in _imported_names(tree).items() if n not in used)
    assert not unused, f"{name}.py imports names it never uses: {unused}"


def test_all_lists_exactly_what_the_package_imports():
    imported = set(_imported_names(_tree("__init__")))
    assert len(tracesys.__all__) == len(set(tracesys.__all__))
    assert set(tracesys.__all__) == imported


def _external_imports(name: str) -> set[str]:
    """The top-level packages outside tracesys that module ``name`` imports."""
    out = set()
    for node in _imports(_tree(name)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[0] for a in node.names}
        elif node.level == 0:
            out.add(node.module.split(".")[0])
    return out - {"tracesys", "__future__"}


def test_sampling_walks_the_chain_without_numpy():
    # the chain is held as rows over the arcs; only the report spreads it
    # into a dense matrix
    assert "numpy" not in _external_imports("sampling")
