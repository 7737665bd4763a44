"""The typed operator contract: RoutingOperator protocol + mypy config.

``RoutingOperator`` (``repro.routing.backends``) is the structural
interface solvers may assume of a routing matrix — operator products,
deliberately *without* a dense view so protocol-typed code cannot
densify.  ``RoutingMatrix`` implements it, and tests substitute fakes.
mypy enforces it in the CI lint job; these tests pin the runtime side
(the protocol is ``runtime_checkable``) and the config, and run mypy
itself when it is installed locally.
"""

from __future__ import annotations

import configparser
import importlib
import inspect
import pkgutil
import shutil
import subprocess
import typing
from pathlib import Path

import numpy as np
import pytest

from repro.routing import RoutingMatrix, RoutingOperator

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRoutingOperatorProtocol:
    def test_routing_matrix_conforms(self, triangle_routing):
        assert isinstance(triangle_routing, RoutingOperator)

    def test_protocol_products_through_the_contract(self, triangle_network):
        matrix = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        operator: RoutingOperator = RoutingMatrix(
            matrix, ["a", "b"], triangle_network.node_pairs()[:3]
        )
        vector = np.array([2.0, 3.0, 5.0])
        loads = np.array([1.0, 4.0])
        weights = np.array([1.0, 2.0, 3.0])
        assert operator.shape == (2, 3)
        np.testing.assert_allclose(operator.matvec(vector), matrix @ vector)
        np.testing.assert_allclose(operator.rmatvec(loads), matrix.T @ loads)
        np.testing.assert_allclose(operator.gram(), matrix.T @ matrix)
        np.testing.assert_allclose(operator.link_gram(weights), (matrix * weights) @ matrix.T)

    def test_the_contract_has_no_dense_view(self):
        members = set(vars(RoutingOperator))
        assert {"matvec", "rmatvec", "gram", "link_gram", "shape"} <= members
        assert not {"matrix", "native", "toarray"} & members

    def test_non_operators_do_not_conform(self):
        assert not isinstance(np.zeros((2, 2)), RoutingOperator)
        assert not isinstance(object(), RoutingOperator)


class TestMypyConfiguration:
    def config(self) -> configparser.ConfigParser:
        parser = configparser.ConfigParser()
        parser.read(REPO_ROOT / "mypy.ini")
        return parser

    def test_config_exists_and_scopes_the_typed_packages(self):
        parser = self.config()
        assert parser.has_section("mypy")
        packages = parser.get("mypy", "packages")
        assert "repro.routing" in packages
        assert "repro.estimation" in packages
        assert parser.get("mypy", "mypy_path") == "src"

    def test_mypy_passes_when_available(self):
        # CI installs mypy for the lint job; the test container does not
        # ship it, so this check self-skips rather than failing offline.
        if shutil.which("mypy") is None:
            pytest.skip("mypy is not installed in this environment")
        result = subprocess.run(
            [shutil.which("mypy"), "--config-file", "mypy.ini"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestCIWiring:
    def test_lint_job_runs_reprolint_and_mypy(self):
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "lint:" in workflow
        assert "python -m reprolint src benchmarks examples" in workflow
        assert "mypy --config-file mypy.ini" in workflow


def _repro_modules() -> list:
    import repro

    names = sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    )
    return [repro] + [importlib.import_module(name) for name in names]


def _functions_of(module) -> list:
    """Functions and methods defined in ``module`` (not imported into it)."""
    found = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append(obj)
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                elif isinstance(attr, property):
                    attr = attr.fget
                if inspect.isfunction(attr):
                    found.append(attr)
    return found


class TestAnnotationsResolve:
    def test_every_repro_annotation_resolves(self):
        # ``from __future__ import annotations`` defers every hint, so a
        # name the module never imports only fails once something resolves
        # the hints; mypy does not see it outside its package scope.
        # Names imported only under TYPE_CHECKING are supplied from the
        # objects repro defines; typing names must come from the module.
        modules = _repro_modules()
        defined = {}
        for module in modules:
            for name, obj in vars(module).items():
                if getattr(obj, "__module__", "").startswith("repro"):
                    defined.setdefault(name, obj)
        failures = []
        checked = 0
        for module in modules:
            for function in _functions_of(module):
                namespace = {**defined, **inspect.unwrap(function).__globals__}
                try:
                    typing.get_type_hints(function, localns=namespace)
                except NameError as exc:
                    failures.append(f"{function.__module__}.{function.__qualname__}: {exc}")
                checked += 1
        assert checked > 500
        assert not failures, "\n".join(failures)
