"""The package's import structure: every import sits at module level, the
modules of the package import each other without a cycle, no module reads
the environment, every public route has a caller outside the tests, and
every name the benchmark's tracer patches exists, and so does every name
a script reads off the package."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "leo_channel"


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE.glob("*.py"))}


def _siblings(tree: ast.Module, modules) -> set[str]:
    """The package's modules that tree imports, relatively or by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("leo_channel."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "leo_channel":
                continue
            parts = module.split(".")[1 if node.level == 0 else 0:]
            if parts and parts[0]:
                names.add(parts[0])
            else:  # from . import x, from leo_channel import x
                names.update(a.name for a in node.names)
    return names & set(modules)


def test_no_import_inside_a_function():
    local = [f"{name}.{fn.name}:{node.lineno}"
             for name, tree in _trees().items()
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


def test_module_imports_are_acyclic():
    trees = _trees()
    graph = {name: _siblings(tree, trees) - {name} for name, tree in trees.items()}
    assert graph["visibility"] >= {"propagation", "quadrature", "geometry"}
    while graph:  # peel off the modules that import nothing left in graph
        leaves = [m for m, deps in graph.items() if not deps & graph.keys()]
        assert leaves, f"import cycle among {sorted(graph)}"
        for m in leaves:
            del graph[m]


def test_no_module_reads_the_environment():
    # every setting is a RunConfig field; the worker count is the affinity set
    reads = [f"{name}:{node.lineno}"
             for name, tree in _trees().items()
             for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                 and isinstance(node.value, ast.Name) and node.value.id == "os")
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and {a.name for a in node.names} & {"environ", "getenv"})]
    assert reads == []


def _public_routes() -> set[str]:
    """module.name of every public module-level function and class, and
    module.Class.name of every public method and property."""
    routes = set()
    for name, tree in _trees().items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            routes.add(f"{name}.{node.name}")
            if isinstance(node, ast.ClassDef):
                routes.update(f"{name}.{node.name}.{m.name}" for m in node.body
                              if isinstance(m, ast.FunctionDef) and m.name[0] != "_")
    return routes


def _names_used(tree: ast.AST, inside=()) -> set[str]:
    """Identifiers a tree names (variables, attributes, imported names and
    strings that are one identifier, as getattr takes them), except inside
    the definition of the same name; a docstring names nothing."""
    used = set()
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside + (tree.name,)
    if isinstance(tree, ast.Name):
        used.add(tree.id)
    elif isinstance(tree, ast.Attribute):
        used.add(tree.attr)
    elif isinstance(tree, ast.alias):
        used.add(tree.name.rsplit(".", 1)[-1])
    elif (isinstance(tree, ast.Constant) and isinstance(tree.value, str)
          and tree.value.isidentifier()):
        used.add(tree.value)
    for child in ast.iter_child_nodes(tree):
        used |= _names_used(child, inside)
    return used - set(inside[-1:])


def test_every_public_route_has_a_program_caller():
    # a route that only the tests reach belongs in tests/oracles.py; the
    # README's library sketch names the results kept as library API
    used = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used.update(re.findall(r"\w+", readme.split("## Library sketch")[1].split("\n## ")[0]))
    assert sorted(r for r in _public_routes() if r.rsplit(".", 1)[-1] not in used) == []


def test_benchmark_tracer_installs():
    # perfbench/spans.py patches the layers by name; a renamed layer is an
    # AttributeError here. A subprocess, so the patches stay out of the suite.
    code = ("import sys; sys.path.insert(0, 'perfbench'); import spans; "
            "spans.install(spans.Tracer())")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _script_bindings(tree: ast.Module) -> tuple[dict, list[str]]:
    """The package modules a script binds, by local name, and the names it
    imports from the package that are missing."""
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "leo_channel":
                    # import a.b binds a; import a.b as c binds c to a.b
                    importlib.import_module(a.name)
                    modules[a.asname or "leo_channel"] = importlib.import_module(
                        a.name if a.asname else "leo_channel")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and (node.module or "").split(".")[0] == "leo_channel"):
            owner = importlib.import_module(node.module)
            for a in node.names:
                try:  # a submodule the package does not import itself
                    value = importlib.import_module(f"{node.module}.{a.name}")
                except ModuleNotFoundError:
                    value = getattr(owner, a.name, None)
                if value is None:
                    missing.append(f"{node.module}.{a.name}")
                elif isinstance(value, types.ModuleType):
                    modules[a.asname or a.name] = value
    return modules, missing


def test_scripts_read_existing_package_names():
    # the scripts too slow for test_cli (bench_layers.py, resolution_budget.py)
    # still fail here when a name they import, or read off an imported
    # module, leaves the package
    missing = []
    for path in sorted((ROOT / "scripts").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules, gone = _script_bindings(tree)
        missing += [f"{path.name}: {name}" for name in gone]
        missing += [f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and not hasattr(modules[node.value.id], node.attr)]
    assert missing == []
