import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import abelcodes
from abelcodes import codes
from abelcodes.idempotents import family_pq

MODULES = [abelcodes] + [
    importlib.import_module(f"abelcodes.{info.name}")
    for info in pkgutil.iter_modules(abelcodes.__path__)
    if info.name != "__main__"
]
SRC = Path(abelcodes.__file__).parent


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_every_exported_name_resolves_and_is_listed_once(module):
    names = module.__all__
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(names) == len(set(names))


SOURCES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_every_public_function_and_class_is_exported(module):
    tree = SOURCES[Path(module.__file__).name]
    public = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert [name for name in public if name not in module.__all__] == []


def _names(node):
    """Every name a node reads, attribute names and imported names included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub, sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub, sub.attr
        elif isinstance(sub, ast.alias):
            yield sub, sub.name


def test_every_private_helper_is_used_outside_its_definition():
    defined = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    orphans = []
    for filename, tree in SOURCES.items():
        for node in tree.body:
            if not isinstance(node, defined) or not node.name.startswith("_"):
                continue
            inside = {id(sub) for sub in ast.walk(node)}
            if not any(
                name == node.name and id(sub) not in inside
                for other in SOURCES.values()
                for sub, name in _names(other)
            ):
                orphans.append(f"{filename}:{node.name}")
    assert orphans == []


ROOT = SRC.parent.parent
# public functions kept with no caller in the package or the demos and no
# mention in the README
UNCALLED = {
    # criterion 9 asserts the paper's identity ord_pq(2) = (p - 1)(q - 1)/2 through it
    "joint_order_2",
    # the paper's lemma that -1 is a square mod p exactly when p = 1 (mod 4),
    # the case split of the u/v blocks, checked against the residue partition
    "minus_one_is_residue",
}


def test_every_public_function_has_a_caller():
    # a reference in the package or the demos outside the function's own body,
    # imports and __all__ entries aside, or a mention in the README, which
    # documents the library
    demos = [ast.parse(path.read_text()) for path in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    uncalled = []
    for tree in SOURCES.values():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            inside = {id(sub) for sub in ast.walk(node)}
            called = any(
                name == node.name and id(sub) not in inside and not isinstance(sub, ast.alias)
                for other in [*SOURCES.values(), *demos]
                for sub, name in _names(other)
            )
            if not called and not re.search(rf"\b{node.name}\b", readme):
                uncalled.append(node.name)
    assert sorted(uncalled) == sorted(UNCALLED)


def test_clear_caches_leaves_no_module_cache_holding_entries():
    codes.clear_caches()
    e = family_pq(3, 11).elements["e3"]  # a member walked as a field: N = 1023 / 33
    assert codes.minimum_weight(e, budget=1 << 10).value == 12
    assert codes._faithful_scans
    codes.clear_caches()
    assert not codes._faithful_scans
    held = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name, value in vars(module).items()
        if hasattr(value, "cache_info") and value.cache_info().currsize
    ]
    assert held == []


@pytest.mark.parametrize("module", ["abelcodes", "abelcodes.cli"])
def test_a_cold_import_loads_neither_dataclasses_nor_inspect(module):
    # together they cost a cold `analyze` run about 25 ms of set-up; -S keeps
    # site hooks out, so only the package's own imports count
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    probe = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_no_source_mentions_dataclass():
    assert [path.name for path in SRC.glob("*.py") if "dataclass" in path.read_text()] == []
