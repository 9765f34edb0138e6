"""Module layout of the framelab package, read from its source.

A module, and a test module, uses a framelab module's public names only: no
`from .mod import _name` and no `mod._name` on an imported framelab module.
Every name a module lists in `__all__` exists. Only `jets` calls `Jet(...)`.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import framelab

PACKAGE_DIR = Path(framelab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")
TESTS_DIR = Path(__file__).parent
# Test modules are scanned too: they use the package's public names only.
SOURCES = {name: PACKAGE_DIR / f"{name}.py" for name in MODULES}
SOURCES.update({p.stem: p for p in sorted(TESTS_DIR.glob("*.py"))})


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_framelab(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "framelab"


def _cross_module_privates(tree: ast.Module) -> list[str]:
    found = []
    module_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_framelab(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: from {node.module or '.'} import {alias.name}")
                if node.module in (None, "framelab"):
                    module_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("framelab.") and alias.asname:
                    module_aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
            and _private(node.attr)
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("name", SOURCES)
def test_no_private_names_across_modules(name):
    tree = ast.parse(SOURCES[name].read_text())
    assert _cross_module_privates(tree) == []


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"framelab.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_scan_sees_cross_module_privates():
    src = (
        "from . import operators as ops\n"
        "from .frame_bundle import _full_frame_field, lifted\n"
        "x = ops._mat(1)\n"
        "y = ops.skew_inner\n"
        "from . import __version__\n"
    )
    found = _cross_module_privates(ast.parse(src))
    assert found == ["line 2: from frame_bundle import _full_frame_field", "line 3: ops._mat"]


def _jet_constructor_calls(tree: ast.Module) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "Jet")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "Jet")
        )
    ]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "jets"])
def test_jets_are_built_only_in_jets(name):
    """Only `jets` calls the Jet constructor, so the rule that a jet stores
    exactly the coefficients of its order holds by construction elsewhere."""
    assert _jet_constructor_calls(ast.parse(SOURCES[name].read_text())) == []


def test_scan_sees_jet_constructor_calls():
    src = "from .jets import Jet\nfrom . import jets\na = Jet(sp, c)\nb = jets.Jet(sp, c)\nc = jstack([a])\n"
    assert _jet_constructor_calls(ast.parse(src)) == [3, 4]


def test_benchmark_tracer_hooks_resolve():
    """Every module, method and registry name the benchmark's tracer wraps
    exists, so a refactor that removes one fails here and not only in the
    benchmark's own self-test."""
    path = TESTS_DIR.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {layer: importlib.import_module(f"framelab.{layer}") for layer in tracer.LAYERS}
    missing = []
    for _, layer, cls_name, attr in tracer.METHODS:
        cls = getattr(modules[layer], cls_name, None)
        if cls is None or attr not in cls.__dict__:
            missing.append(f"{layer}.{cls_name}.{attr}")
    assert missing == []
    assert isinstance(modules["verify"].REGISTRY, tuple) and modules["verify"].REGISTRY
    assert modules["verify"].registry_ids() == [c.id for c in modules["verify"].REGISTRY]
