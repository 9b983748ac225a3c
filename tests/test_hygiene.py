"""Source hygiene: no module imports a name it never uses or another
module's private name, every public name has a caller outside the tests,
importing the package stays cheap, every tape primitive has a
finite-difference test, and no config default restates a dataclass."""

import ast
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from tpp.data import SyntheticTaskSpec
from tpp.optim import AdamWSpec
from tpp.peft import MECHANISMS
from tpp.pretext import DinoConfig, MaeConfig
from tpp.vit import ViTConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "tpp").glob("*.py"))
FILES = SRC + sorted((ROOT / "tests").glob("*.py"))


def exported(tree: ast.AST) -> set[str]:
    """The names that the module's `__all__` lists."""
    return {c.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for c in ast.walk(node.value) if isinstance(c, ast.Constant)}


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
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys\nfrom a.b import c, d as e\n__all__ = ['c']\nsys.exit(e)\n"
    assert unused_imports(source) == ["line 1: os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    """`from .module import _name` statements: another module's private name."""
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_the_check_sees_a_private_import():
    source = ("from .a import b, _c\nfrom . import _d\nfrom os import _exit\n"
              "from .e import (f,\n    _g)\n")
    assert private_imports(source) == ["line 1: _c", "line 2: _d", "line 4: _g"]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    assert private_imports(path.read_text()) == []


def _referenced(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names that `tree` loads, imports or reads as an attribute, outside the node `skip`."""
    out, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        todo.extend(ast.iter_child_nodes(node))
    return out


def unreached(modules: dict[str, str], bench: list[str], public: set[str]) -> list[str]:
    """Public names of `modules` (file name -> source) that only the tests can reach.

    A top-level def or class is reached when another module names it, when
    its own module names it outside its definition, when a `bench` source
    names it, or when `public` holds it. A public method is reached when a
    module or the bench reads it as an attribute. The bench's string
    constants count, split at dots: the tracer names what it wraps as
    strings such as "Class.method".
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    bench_trees = [ast.parse(source) for source in bench]
    outside = set(public)
    for tree in bench_trees:
        outside |= _referenced(tree)
        outside.update(part for n in ast.walk(tree) if isinstance(n, ast.Constant)
                       and isinstance(n.value, str) for part in n.value.split("."))
    attributes = Counter(n.attr for tree in [*trees.values(), *bench_trees]
                         for n in ast.walk(tree) if isinstance(n, ast.Attribute))

    def reads_elsewhere(method: ast.FunctionDef) -> bool:
        inside = sum(isinstance(n, ast.Attribute) and n.attr == method.name
                     for n in ast.walk(method))
        return method.name in outside or attributes[method.name] > inside

    missing = []
    for name, tree in trees.items():
        others = set().union(*(_referenced(t) for n, t in trees.items() if n != name))
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not top.name.startswith("_") and top.name not in (
                    others | outside | _referenced(tree, skip=top)):
                missing.append(f"{name}: {top.name}")
            if isinstance(top, ast.ClassDef):
                missing += [f"{name}: {top.name}.{m.name}" for m in top.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                            and not reads_elsewhere(m)]
    return missing


def test_the_reachability_scan_sees_an_unreferenced_def_and_method():
    module = ("def called():\n    pass\n"
              "def recursive():\n    return recursive()\n"
              "def traced():\n    pass\n"
              "def listed():\n    pass\n"
              "def local():\n    pass\n"
              "def _private():\n    pass\n"
              "HOOK = local\n"
              "class K:\n"
              "    def run(self):\n        pass\n"
              "    def idle(self):\n        return self.idle\n"
              "    def wrapped(self):\n        pass\n")
    modules = {"a.py": module, "b.py": "from .a import K, called\nK().run()\n"}
    bench = ["ENTRY_POINTS = [('tpp.a', 'traced'), ('tpp.a', 'K.wrapped')]\n"]
    assert unreached(modules, bench, {"listed"}) == ["a.py: recursive", "a.py: K.idle"]


def test_every_public_name_has_a_caller_outside_the_tests():
    package = exported(ast.parse((ROOT / "src" / "tpp" / "__init__.py").read_text()))
    bench = [p.read_text() for p in sorted((ROOT / "tppbench").glob("*.py"))]
    assert unreached({p.name: p.read_text() for p in SRC}, bench, package) == []


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
    assert primitives == {"add", "mul", "gelu", "linear", "transpose", "reshape", "concat",
                          "narrow", "take_tokens", "scatter_tokens", "layer_norm", "attention",
                          "mse_masked", "cross_entropy", "soft_cross_entropy", "dice_ce"}
    assert sorted(primitives - checked) == []


def loaded_modules(imports: str, prefixes: tuple[str, ...]) -> list[str]:
    """The modules under any of `prefixes` that a fresh process has loaded after `imports`."""
    probe = f"import sys, {imports}; print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return ast.literal_eval(out.stdout)


def test_importing_the_package_and_its_cli_loads_only_the_erf_module_of_scipy():
    # GELU's erf is all that the package takes from scipy (`tensor._load_erf`).
    # `scipy.special`'s package import would add ~300 ms to the set-up of every
    # process: it clones numpy's namespace, with `numpy.f2py` and `numpy.testing`
    assert loaded_modules("tpp, tpp.cli", ("scipy", "numpy.f2py", "numpy.testing")) == [
        "scipy.special._special_ufuncs"]


# config section -> the dataclasses that its builder fills
BUILDERS = {"model": (ViTConfig,), "peft": tuple(MECHANISMS.values()),
            "pretext": (MaeConfig, DinoConfig), "stage": (AdamWSpec,),
            "data": (SyntheticTaskSpec,)}
# keys that `ExperimentConfig.peft_spec` passes to a field of another name
RENAMED = {("peft", "vpt_mode"): "mode", ("peft", "lora_targets"): "targets"}
# [data] kind says synthetic_cls/synthetic_seg where the spec says
# textured_shapes_cls/blob_seg, and `load_data` maps one to the other: the
# benchmark builds a spec with a spec kind (tppbench/workloads.py) and writes
# a config with a config kind (its CLI_CONFIG), so one set of names can go
# only in a benchmark change
LITERAL_ALLOWED = {("data", "kind")}


def literal_defaults(source: str) -> list[str]:
    """The SCHEMA keys in `source` that name a builder field but state their own default.

    A default reads field `f` when its expression names `Cls.f`, for a
    `Cls` of the key's section that has the field `f`.
    """
    schema = next(n.value for n in ast.parse(source).body if isinstance(n, ast.AnnAssign)
                  and isinstance(n.target, ast.Name) and n.target.id == "SCHEMA")
    out = []
    for section_node, keys in zip(schema.keys, schema.values):
        section = section_node.value
        for key_node, entry in zip(keys.keys, keys.values):
            key = key_node.value
            field = RENAMED.get((section, key), key)
            owners = {c.__name__ for c in BUILDERS.get(section, ())
                      if field in {f.name for f in fields(c)}}
            if not owners or (section, key) in LITERAL_ALLOWED:
                continue
            if not any(isinstance(n, ast.Attribute) and n.attr == field
                       and isinstance(n.value, ast.Name) and n.value.id in owners
                       for n in ast.walk(entry.elts[0])):
                out.append(f"[{section}] {key}")
    return out


def test_the_default_scan_sees_a_planted_literal():
    source = ("SCHEMA: dict = {\n"
              "  'model': {'depth': (4, int, '>= 1'),\n"
              "            'embed_dim': (ViTConfig.depth, int, '>= 1'),\n"
              "            'patch_size': (ViTConfig.patch_size, int, '>= 1')},\n"
              "  'peft': {'method': ('adapter', str, None),\n"
              "           'vpt_mode': ('shallow', str, None),\n"
              "           'lora_targets': (','.join(LoraSpec.targets), str, None),\n"
              "           'scale': (AdapterSpec.scale, float, None)},\n"
              "  'data': {'kind': ('synthetic_cls', str, None), 'noise': (0.25, float, None)},\n"
              "  'eval': {'batch_size': (64, int, '>= 1')}}\n")
    assert literal_defaults(source) == ["[model] depth", "[model] embed_dim",
                                        "[peft] vpt_mode", "[peft] scale", "[data] noise"]


def test_every_config_default_backed_by_a_dataclass_field_reads_it():
    assert literal_defaults((ROOT / "src" / "tpp" / "config.py").read_text()) == []
