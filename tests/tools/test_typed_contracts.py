"""The typed operator contract: RoutingOperator protocol + mypy config.

``RoutingOperator`` (``repro.routing.backends``) is the structural
interface solvers may assume of a routing matrix — operator products,
deliberately *without* ``toarray`` so protocol-typed code cannot
densify.  mypy enforces it in the CI lint job; these tests pin the
runtime side (the protocol is ``runtime_checkable``) and the config, and
run mypy itself when it is installed locally.
"""

from __future__ import annotations

import configparser
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.routing import DenseBackend, RoutingOperator, SparseBackend, make_backend

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRoutingOperatorProtocol:
    def test_backends_conform(self):
        matrix = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert isinstance(DenseBackend(matrix), RoutingOperator)
        assert isinstance(SparseBackend(matrix), RoutingOperator)
        assert isinstance(make_backend(matrix), RoutingOperator)

    def test_protocol_products_agree_across_backends(self):
        matrix = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        vector = np.array([2.0, 3.0, 5.0])
        loads = np.array([1.0, 4.0])
        dense: RoutingOperator = DenseBackend(matrix)
        sparse: RoutingOperator = SparseBackend(matrix)
        np.testing.assert_allclose(dense.matvec(vector), sparse.matvec(vector))
        np.testing.assert_allclose(dense.rmatvec(loads), sparse.rmatvec(loads))
        np.testing.assert_allclose(dense.gram(), sparse.gram())

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
