"""Source hygiene: no module imports a name it never uses, importing the
package stays cheap, and every tape primitive has a finite-difference test."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "tpp").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never loads.

    A name listed in `__all__` counts as used: it is re-exported.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys\nfrom a.b import c, d as e\n__all__ = ['c']\nsys.exit(e)\n"
    assert unused_imports(source) == ["line 1: os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


FD_ORACLES = {"finite_difference", "finite_difference_sampled"}


def taped_primitives(source: str) -> set[str]:
    """Public module-level functions that record a tape node (call `_record`)."""
    return {f.name for f in ast.parse(source).body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
            and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "_record" for n in ast.walk(f))}


def ops_checked_by_finite_differences(source: str) -> set[str]:
    """Names that a test calling a finite-difference oracle gives its ops.

    A test names an op as `T.<op>` or as a string in its decorators (a
    `parametrize` list that the test resolves with `getattr(T, op)`).
    """
    named = set()
    for f in ast.walk(ast.parse(source)):
        if not (isinstance(f, ast.FunctionDef) and f.name.startswith("test_")):
            continue
        if not any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id in FD_ORACLES for n in ast.walk(f)):
            continue
        named |= {n.attr for n in ast.walk(f) if isinstance(n, ast.Attribute)
                  and isinstance(n.value, ast.Name) and n.value.id == "T"}
        named |= {n.value for d in f.decorator_list for n in ast.walk(d)
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return named


def test_the_coverage_scan_sees_an_unchecked_primitive():
    assert taped_primitives("def a(x):\n    return _record(x)\n"
                            "def _b(x):\n    return _record(x)\n"
                            "def c(x):\n    return x\n") == {"a"}
    tests = ("@pytest.mark.parametrize('op', ['a'])\n"
             "def test_a(op):\n    finite_difference(lambda: getattr(T, op)(1), x)\n"
             "def test_b():\n    T.b(1)\n"
             "def test_c():\n    finite_difference_sampled(lambda: T.c(1), x, i)\n")
    assert ops_checked_by_finite_differences(tests) == {"op", "a", "c"}


def test_every_taped_primitive_is_checked_against_finite_differences():
    primitives = taped_primitives((ROOT / "src" / "tpp" / "tensor.py").read_text())
    checked = ops_checked_by_finite_differences((ROOT / "tests" / "test_tensor.py").read_text())
    assert {"linear", "attention", "dice_ce"} <= primitives
    assert sorted(primitives - checked) == []


def test_importing_the_package_loads_no_scipy_stats():
    # `scipy.stats` alone takes over a second to import and raises peak memory;
    # the package needs only `scipy.special` and `scipy.ndimage`
    probe = "import sys, tpp; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
