"""The package's import structure: every import sits at module level, the
modules of the package import each other without a cycle, and every name
the benchmark's tracer patches exists."""

import ast
import os
import subprocess
import sys
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


def test_benchmark_tracer_installs():
    # perfbench/spans.py patches the layers by name; a renamed layer is an
    # AttributeError here. A subprocess, so the patches stay out of the suite.
    code = ("import sys; sys.path.insert(0, 'perfbench'); import spans; "
            "spans.install(spans.Tracer())")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
