"""Module layout of the framelab package, read from its source.

A module, and a test module, uses a framelab module's public names only: no
`from .mod import _name` and no `mod._name` on an imported framelab module,
and every public name it imports from a framelab module, or reads as
`mod.name` on one, is in that module's `__all__`. Every name a module lists
in `__all__` exists. Only `jets` calls `Jet(...)`, `finite_diff`
imports no framelab module, `oracles` imports only the value layers
(`finite_diff`, `jets`, `expr`, `ambient` and `submanifold`), no module
loads scipy, and `verify` names no builtin submanifold outside
`DEFAULT_BUILTINS`.
A framelab module reads every name it imports with `from ... import`, or
re-exports it in `__all__`. Only the few functions that turn a submanifold
and its points into a frame read `.frame_data`; every other function is
handed its frame. Every function a module lists in `__all__` is read by
package code outside its own definition, or is an entry point or a route
the tests check against, on a commented list.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import framelab
from framelab.submanifold import FrameError, builtin_submanifold
from framelab.verify import DEFAULT_BUILTINS

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


def _framelab_module(node: ast.ImportFrom) -> str | None:
    """The framelab module a framelab `from ... import` reads from, or None
    when it imports from the package itself."""
    if node.level > 0:
        return node.module
    parts = node.module.split(".")
    return parts[1] if len(parts) > 1 else None


def _names_missing_from_all(tree: ast.Module) -> list[str]:
    """Public names that a source imports from a framelab module, or reads
    as `mod.name` on an imported framelab module, and that the module does
    not list in `__all__`."""
    used = []
    module_aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_framelab(node):
            mod = _framelab_module(node)
            for alias in node.names:
                if mod is not None:
                    used.append((node.lineno, mod, alias.name))
                elif alias.name in MODULES:
                    module_aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "framelab" and len(parts) == 2 and alias.asname:
                    module_aliases[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
        ):
            used.append((node.lineno, module_aliases[node.value.id], node.attr))
    found = []
    for line, mod, name in sorted(used):
        exported = getattr(importlib.import_module(f"framelab.{mod}"), "__all__", ())
        if not _private(name) and name not in exported:
            found.append(f"line {line}: {mod}.{name}")
    return found


@pytest.mark.parametrize("name", SOURCES)
def test_names_used_across_modules_are_exported(name):
    assert _names_missing_from_all(ast.parse(SOURCES[name].read_text())) == []


def test_scan_sees_names_missing_from_all():
    src = (
        "from . import operators as ops\n"
        "from .jets import jet_einsum, jet_kernel\n"
        "from framelab.verify import REGISTRY\n"
        "x = ops.skew_inner(a, b) + ops.skew_outer + ops._mat(a)\n"
        "import framelab.gauss_map as gm\n"
        "y = gm.tension_field, gm.tension\n"
        "from . import __version__\n"
    )
    found = _names_missing_from_all(ast.parse(src))
    assert found == ["line 2: jets.jet_kernel", "line 4: operators.skew_outer", "line 6: gauss_map.tension"]


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


def _framelab_imports(tree: ast.Module) -> list[str]:
    """The imports of framelab modules, or of the package, in a source."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_framelab(node):
            found.append(f"line {node.lineno}: from {'.' * node.level}{node.module or ''}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "framelab":
                    found.append(f"line {node.lineno}: import {alias.name}")
    return found


def test_finite_diff_imports_no_framelab_module():
    """The finite-difference oracle shares no code with the jet route it
    checks, so a fault in that route cannot cancel out of the comparison."""
    assert _framelab_imports(ast.parse(SOURCES["finite_diff"].read_text())) == []


def test_scan_sees_framelab_imports():
    src = "import numpy as np\nfrom . import jets\nfrom .expr import parse\nimport framelab.ambient"
    found = _framelab_imports(ast.parse(src))
    assert found == ["line 2: from .", "line 3: from .expr", "line 4: import framelab.ambient"]


# The framelab modules the FD routes may import: those that give values at
# points. The jet routes they check live in operators and above.
ORACLE_IMPORTS = {"finite_diff", "jets", "expr", "ambient", "submanifold"}


def _imports_outside(tree: ast.Module, allowed: set) -> list[str]:
    """The framelab modules a source imports that are not in allowed, one
    entry per module; an import of the package itself is an entry too."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_framelab(node):
            mod = _framelab_module(node)
            mods = [mod] if mod is not None else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            mods = [p[1] if len(p) > 1 else p[0] for p in parts if p[0] == "framelab"]
        else:
            continue
        found.extend(f"line {node.lineno}: {mod}" for mod in mods if mod not in allowed)
    return found


def test_oracles_import_only_value_layers():
    """The FD routes read frame values, metric values and field expressions
    only, so they share no code with the jet routes of operators,
    frame_bundle, omn_geometry, gauss_map and verify that they check."""
    assert _imports_outside(ast.parse(SOURCES["oracles"].read_text()), ORACLE_IMPORTS) == []


def test_no_module_loads_scipy():
    """Importing every framelab module, in a fresh interpreter, loads no
    scipy module: the sampler draws its Halton points in numpy, so the
    package starts without the cost of scipy.stats. scipy serves the tests
    as an oracle only."""
    code = (
        "import importlib, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module('framelab.' + name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_scan_sees_imports_outside_the_value_layers():
    src = (
        "import numpy as np\n"
        "from . import finite_diff\n"
        "from .expr import eval_expr, parse\n"
        "from .operators import as_chart_field\n"
        "from . import jets, verify\n"
        "import framelab.gauss_map as gm\n"
        "from framelab.submanifold import FrameError\n"
        "import framelab\n"
    )
    found = _imports_outside(ast.parse(src), ORACLE_IMPORTS)
    assert found == ["line 4: operators", "line 5: verify", "line 6: gauss_map", "line 8: framelab"]


def _builtin_names(tree: ast.Module) -> list[str]:
    """The string constants of a source that builtin_submanifold accepts."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                builtin_submanifold(node.value)
            except FrameError:
                continue
            found.append(node.value)
    return sorted(found)


def test_verify_names_no_builtin_outside_the_default_set():
    """Where a registry case runs, and where its witness must be live, is
    read from the geometry, so a new builtin needs no registry edit."""
    names = _builtin_names(ast.parse(SOURCES["verify"].read_text()))
    assert names == sorted(DEFAULT_BUILTINS)


def test_scan_sees_builtin_names():
    src = 'A = ("plane", "planes")\nB = {" Sphere2": "great2(0.50)", "k": f"great2({k})"}\n'
    assert _builtin_names(ast.parse(src)) == [" Sphere2", "great2(0.50)", "plane"]


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by `from ... import` that the module never reads and does
    not list in `__all__`."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = {e.value for e in node.value.elts}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name
                if name not in read and name not in exported:
                    found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    assert _unused_imports(ast.parse(SOURCES[name].read_text())) == []


def test_scan_sees_unused_imports():
    src = (
        "from __future__ import annotations\n"
        "from .jets import Jet, jstack, get_space as gs\n"
        "from .expr import parse\n"
        "__all__ = ['parse']\n"
        "def f(x):\n"
        "    from .ambient import euclidean, metric_at\n"
        "    return jstack([x]), metric_at\n"
    )
    found = _unused_imports(ast.parse(src))
    assert found == ["line 2: Jet", "line 2: gs", "line 6: euclidean"]


# Exported functions that no package code reads, and why each stays. The
# entry points: a caller of the package, and the benchmark, start there.
# The rest are read by the tests, which check the package's routes against
# them from another side.
UNREFERENCED_EXPORTS = [
    ("ambient", "curvature_at"),  # tests: R read off geometry_jets at one point
    ("expr", "to_source"),  # tests: the printer's round trip through parse
    ("frame_bundle", "normal_generators"),  # tests: decompose_OMN's normal space
    ("frame_bundle", "tangent_generators"),  # tests: decompose_OMN's tangent space
    ("gauss_map", "tension_field_pullback"),  # tests: the tension from the connection
    ("verify", "fd_relative_error"),  # entry point: the finite-difference check
    ("verify", "registry_ids"),  # entry point: the registry's case ids
    ("verify", "run_suite"),  # entry point: the registry run
]


def _reads(node: ast.AST) -> set[str]:
    """The names a subtree reads, as a name or as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _unreferenced_exports(trees: dict) -> list[tuple[str, str]]:
    """(module, name) of each module-level function a module lists in
    `__all__` that no source of trees reads outside that function's own
    definition."""
    reads = []
    for mod, tree in trees.items():
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            reads.append((mod, owner, _reads(top)))
    found = []
    for mod, tree in trees.items():
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = {e.value for e in node.value.elts}
        for fn in tree.body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name in exported:
                if not any(fn.name in names and (m, owner) != (mod, fn.name) for m, owner, names in reads):
                    found.append((mod, fn.name))
    return sorted(found)


def test_every_exported_function_is_read_or_listed():
    """A public function that nothing in the package reads is dead code
    unless it is an entry point or a route the tests check against."""
    trees = {name: ast.parse(SOURCES[name].read_text()) for name in MODULES}
    assert _unreferenced_exports(trees) == UNREFERENCED_EXPORTS


def test_scan_sees_unreferenced_exports():
    a = (
        "__all__ = ['named', 'attributed', 'recursive', 'alone', 'CONST', 'Cls']\n"
        "def named(): pass\n"
        "def attributed(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def alone(): return named()\n"
        "def hidden(): pass\n"
        "CONST = 1\n"
        "class Cls: pass\n"
    )
    b = "from . import a\nx = a.attributed\ndef recursive(): return 'alone'\n"
    found = _unreferenced_exports({"a": ast.parse(a), "b": ast.parse(b)})
    assert found == [("a", "alone"), ("a", "recursive")]


# The functions that turn (M, points) into a frame, by module: the registry
# run's planner, the sampled sweeps, and the finite-difference oracle's frames
# at u and at its stencils. Every other function takes the frame it reads.
FRAME_LOOKUPS = {
    ("gauss_map", "theorem_check"),
    ("omn_geometry", "is_totally_geodesic"),
    ("verify", "_ev_space_form_sectional_nonnegative"),
    ("verify", "_plan"),
    ("verify", "fd_oracle"),
    ("verify", "jet_value"),
}


def _frame_lookups(tree: ast.Module) -> list[str]:
    """The module-level functions and methods of a source that read a
    `.frame_data` attribute, to call it or to pass it on."""
    found = []
    for top in tree.body:
        defs = top.body if isinstance(top, ast.ClassDef) else [top]
        for fn in defs:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Attribute) and node.attr == "frame_data" for node in ast.walk(fn)
            ):
                found.append(fn.name)
    return found


def _identifiers(tree: ast.Module) -> set[str]:
    """Every name a source defines, imports, reads or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_frames_are_looked_up_only_where_points_become_frames():
    """Geometry functions take the frame they evaluate at, and a lifted
    vector holds its frame, so no frame is looked up again by its points
    outside the entry points that sample."""
    found = {(name, fn) for name in MODULES for fn in _frame_lookups(ast.parse(SOURCES[name].read_text()))}
    assert found == FRAME_LOOKUPS
    assert [name for name in MODULES if "frame_at" in _identifiers(ast.parse(SOURCES[name].read_text()))] == []


def test_scan_sees_frame_lookups():
    src = (
        "from functools import partial\n"
        "def sweep(M, U):\n"
        "    return M.frame_data(U)\n"
        "def oracle(M, u):\n"
        "    return partial(M.frame_data, order=2)\n"
        "class Lens:\n"
        "    def look(self, u):\n"
        "        return (lambda: self.sub.frame_data(u))()\n"
        "def geometry(fd):\n"
        "    return fd.frame_components(fd.x0)\n"
        "def frame_at(M, u):\n"
        "    pass\n"
    )
    tree = ast.parse(src)
    assert _frame_lookups(tree) == ["sweep", "oracle", "look"]
    assert {"frame_at", "frame_data", "partial", "frame_components"} <= _identifiers(tree)


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
