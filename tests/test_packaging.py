"""``setup.py`` declares the package: its name, ``repro.__version__`` and
every third-party package a module under ``repro`` imports; and every name
a module under ``repro`` exports in ``__all__`` exists."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: Run as ``python -c IMPORT_EVERY_MODULE <src> <module>... -- <requirement>...``:
#: imports each module with an import system that refuses any top-level
#: package outside the standard library, the requirements and ``repro``,
#: printing each module's name once it is imported.
IMPORT_EVERY_MODULE = """
import importlib
import importlib.abc
import sys
import sysconfig
from importlib.machinery import PathFinder

split = sys.argv.index("--")
modules, allowed = sys.argv[2:split], {"repro", *sys.argv[split + 1 :]}
stdlib = (sysconfig.get_path("stdlib"), sysconfig.get_path("platstdlib"))
site = (sysconfig.get_path("purelib"), sysconfig.get_path("platlib"))


def in_stdlib(top):
    if top in sys.stdlib_module_names:
        return True
    # Platform modules such as sysconfig's _sysconfigdata_* are not listed.
    spec = PathFinder.find_spec(top)
    origin = (spec.origin or "") if spec is not None else ""
    return origin.startswith(stdlib) and not origin.startswith(site)


class RefuseUndeclared(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top in allowed or in_stdlib(top):
            return None
        raise ModuleNotFoundError(f"undeclared dependency {top!r} (importing {name!r})", name=name)


sys.meta_path.insert(0, RefuseUndeclared())
sys.path.insert(0, sys.argv[1])
for module in modules:
    importlib.import_module(module)
    print(module)
"""


def declared_requirements() -> list[str]:
    """The ``install_requires`` list that ``setup.py`` passes to ``setup()``."""
    for node in ast.walk(ast.parse((REPO_ROOT / "setup.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup":
            for keyword in node.keywords:
                if keyword.arg == "install_requires":
                    return list(ast.literal_eval(keyword.value))
    raise AssertionError("setup.py passes no install_requires to setup()")


def module_name(path: Path) -> str:
    """The dotted name of the module in ``path`` under ``src``."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def repro_modules() -> list[str]:
    """Every module under ``src/repro``, found from the files (nothing imported)."""
    return [module_name(path) for path in sorted((SRC / "repro").rglob("*.py"))]


def exporting_modules() -> list[str]:
    """The modules under ``src/repro`` whose source assigns ``__all__``."""
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                names.append(module_name(path))
                break
    return names


def test_setup_reports_name_and_version():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert completed.stdout.split() == ["repro", repro.__version__]


def test_setup_requires_numpy_and_scipy_only():
    assert sorted(declared_requirements()) == ["numpy", "scipy"]


def import_with_only(modules: list[str], requirements: list[str]) -> subprocess.CompletedProcess:
    """Import ``modules`` in a fresh interpreter that refuses undeclared packages."""
    return subprocess.run(
        [sys.executable, "-c", IMPORT_EVERY_MODULE, str(SRC), *modules, "--", *requirements],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_every_module_imports_with_only_the_declared_requirements():
    modules = repro_modules()
    assert "repro.topology.network" in modules
    completed = import_with_only(modules, declared_requirements())
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == modules


def test_an_undeclared_package_is_refused():
    # Withholding scipy must break the topology layer, which validates
    # connectivity with scipy's csgraph: the refusal is what the test above
    # relies on.
    completed = import_with_only(["repro.topology.network"], ["numpy"])
    assert completed.returncode != 0
    assert "undeclared dependency 'scipy'" in completed.stderr


@pytest.mark.parametrize("name", exporting_modules())
def test_every_export_resolves(name):
    # ``from module import *`` raises on an ``__all__`` entry the module
    # does not define, so a deleted name must leave every export list too.
    # One case per module, so a failure names the module.
    module = importlib.import_module(name)
    exports = module.__all__
    assert exports and len(set(exports)) == len(exports)
    assert [export for export in exports if not hasattr(module, export)] == []
