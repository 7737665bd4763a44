"""Per-rule behaviour of the reprolint invariant checker.

Every rule family gets three fixtures: a violating snippet (detected, with
the right line), an allowlisted variant (suppressed via an
:class:`~reprolint.engine.AllowlistEntry`), and a pragma-suppressed
variant (``# reprolint: allow[rule]``).
"""

from __future__ import annotations

import textwrap

import pytest

from reprolint.engine import AllowlistEntry, load_allowlist, parse_pragmas
from reprolint.rules import ALL_RULES, rules_by_name


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestSparseSafety:
    def test_toarray_on_annotated_parameter(self, lint):
        found = lint(
            """
            from repro.routing import RoutingMatrix

            def leak(routing: RoutingMatrix):
                return routing.toarray()
            """
        )
        assert codes(found) == ["REPRO101"]
        assert found[0].line == 5
        assert "toarray" in found[0].message

    def test_taint_propagates_through_assignments(self, lint):
        found = lint(
            """
            def leak(problem):
                routing = problem.routing
                alias = routing
                dense = alias.toarray()
                return dense
            """
        )
        assert codes(found) == ["REPRO101"]
        assert found[0].line == 5

    def test_np_linalg_on_routing_object(self, lint):
        found = lint(
            """
            import numpy as np
            from repro.routing import build_routing_matrix

            def rank(network):
                routing = build_routing_matrix(network)
                return np.linalg.matrix_rank(routing.toarray())
            """
        )
        # Both the np.linalg call and the inner .toarray() are flagged.
        assert codes(found) == ["REPRO101", "REPRO101"]
        assert "np.linalg.matrix_rank" in found[0].message

    def test_np_asarray_on_routing_attribute(self, lint):
        found = lint(
            """
            import numpy as np

            def densify(problem):
                return np.asarray(problem.routing)
            """
        )
        assert codes(found) == ["REPRO101"]

    def test_toarray_on_the_csr_handle(self, lint):
        found = lint(
            """
            def leak(problem):
                return problem.routing.native.toarray()

            class Holder:
                def dense(self):
                    return self._csr.toarray()
            """
        )
        assert codes(found) == ["REPRO101", "REPRO101"]
        assert [d.line for d in found] == [3, 7]
        assert "problem.routing.native.toarray()" in found[0].message

    def test_csr_handle_taints_assignments(self, lint):
        found = lint(
            """
            import numpy as np

            def leak(problem):
                csr = problem.routing.native
                return np.asarray(csr), csr.toarray()
            """
        )
        assert codes(found) == ["REPRO101", "REPRO101"]
        assert "np.asarray applied to routing operator csr" in found[0].message
        assert "csr.toarray()" in found[1].message

    def test_plain_arrays_are_not_flagged(self, lint):
        assert lint(
            """
            import numpy as np

            def fine(values):
                data = np.asarray(values, dtype=float)
                return np.linalg.norm(data)
            """
        ) == []

    def test_pragma_suppresses(self, lint):
        assert lint(
            """
            def gated(problem):
                csr = problem.routing.native
                return csr.toarray()  # reprolint: allow[sparse-safety]
            """
        ) == []

    def test_pragma_on_line_above_suppresses(self, lint):
        assert lint(
            """
            def gated(routing_matrix):
                # reprolint: allow[sparse-safety]
                return routing_matrix.native.toarray()
            """
        ) == []

    def test_allowlist_fragment_suppresses(self, lint):
        entry = AllowlistEntry(
            rule="sparse-safety",
            path="snippet.py",
            fragment="native.toarray()",
            reason="documented dense view",
        )
        assert lint(
            """
            def cached(problem):
                return problem.routing.native.toarray()
            """,
            allowlist=[entry],
        ) == []

    def test_allowlist_does_not_leak_to_other_rules(self, lint):
        entry = AllowlistEntry(
            rule="determinism", path="snippet.py", fragment="*", reason="x"
        )
        found = lint(
            """
            def leak(problem):
                return problem.routing.toarray()
            """,
            allowlist=[entry],
        )
        assert codes(found) == ["REPRO101"]


class TestDeterminism:
    def test_unseeded_default_rng(self, lint):
        found = lint(
            """
            import numpy as np

            def sample():
                rng = np.random.default_rng()
                return rng.normal()
            """
        )
        assert codes(found) == ["REPRO201"]
        assert found[0].line == 5

    def test_default_rng_with_explicit_none_seed(self, lint):
        found = lint(
            """
            import numpy as np

            def sample(seed=None):
                return np.random.default_rng(None)
            """
        )
        assert codes(found) == ["REPRO201"]

    def test_seeded_default_rng_is_clean(self, lint):
        assert lint(
            """
            import numpy as np

            def sample(seed):
                return np.random.default_rng(seed)
            """
        ) == []

    def test_legacy_global_state_flagged_even_when_seeded(self, lint):
        found = lint(
            """
            import numpy as np

            def sample():
                np.random.seed(42)
                return np.random.normal(size=3)
            """
        )
        assert codes(found) == ["REPRO201", "REPRO201"]
        assert [d.line for d in found] == [5, 6]

    def test_unseeded_random_state(self, lint):
        found = lint(
            """
            import numpy as np

            def sample():
                return np.random.RandomState()
            """
        )
        assert codes(found) == ["REPRO201"]

    def test_repo_entry_point_without_seed(self, lint):
        found = lint(
            """
            from repro.datasets import large_scenario

            def build():
                return large_scenario(num_nodes=50)
            """
        )
        assert codes(found) == ["REPRO201"]
        assert "seed" in found[0].message

    def test_repo_entry_point_with_seed_is_clean(self, lint):
        assert lint(
            """
            from repro.datasets import large_scenario

            def build():
                return large_scenario(num_nodes=50, seed=7)
            """
        ) == []

    def test_pragma_suppresses(self, lint):
        assert lint(
            """
            import numpy as np

            def fresh_entropy():
                return np.random.default_rng()  # reprolint: allow[determinism]
            """
        ) == []

    def test_allowlist_whole_file(self, lint):
        entry = AllowlistEntry(
            rule="determinism", path="snippet.py", fragment="*", reason="demo script"
        )
        assert lint(
            """
            import numpy as np

            def sample():
                return np.random.default_rng()
            """,
            allowlist=[entry],
        ) == []


class TestPoolSafety:
    def test_lambda_submission(self, lint):
        found = lint(
            """
            from repro.parallel import payload_executor

            def run(items):
                with payload_executor(4) as pool:
                    return list(pool.map(lambda item: item + 1, items))
            """
        )
        assert codes(found) == ["REPRO301"]
        assert "lambda" in found[0].message

    def test_nested_function_submission(self, lint):
        found = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(matrix, items):
                def worker(item):
                    return matrix @ item
                with ProcessPoolExecutor(4) as pool:
                    return [pool.submit(worker, item) for item in items]
            """
        )
        assert codes(found) == ["REPRO301"]
        assert "nested function" in found[0].message

    def test_bound_method_submission(self, lint):
        found = lint(
            """
            from repro.parallel import payload_executor

            def run(engine, items):
                with payload_executor(2) as pool:
                    return list(pool.map(engine.evaluate, items))
            """
        )
        assert codes(found) == ["REPRO301"]

    def test_module_level_worker_is_clean(self, lint):
        assert lint(
            """
            from repro.parallel import payload_executor, resolve_payload

            def worker(ref):
                return resolve_payload(ref).sum()

            def run(refs):
                with payload_executor(4) as pool:
                    return list(pool.map(worker, refs))
            """
        ) == []

    def test_worker_writing_into_payload(self, lint):
        found = lint(
            """
            from repro.parallel import resolve_payload

            def worker(index, ref):
                base, problems, priors = resolve_payload(ref)
                priors[index][:] = 0.0
                return priors[index]
            """
        )
        assert codes(found) == ["REPRO301"]
        assert found[0].line == 6

    def test_worker_augmented_assign_on_payload(self, lint):
        found = lint(
            """
            from repro.parallel import resolve_payload

            def worker(ref):
                data = resolve_payload(ref)
                data += 1
                return data
            """
        )
        assert codes(found) == ["REPRO301"]

    def test_worker_mutating_method_on_payload(self, lint):
        found = lint(
            """
            from repro.parallel import resolve_payload

            def worker(ref):
                payload = resolve_payload(ref)
                payload.update(done=True)
                return payload
            """
        )
        assert codes(found) == ["REPRO301"]
        assert ".update()" in found[0].message

    def test_worker_reading_payload_is_clean(self, lint):
        assert lint(
            """
            from repro.parallel import resolve_payload

            def worker(index, ref):
                base, problems = resolve_payload(ref)
                local = problems[index].copy()
                local[:] = 1.0
                return base.estimate(local)
            """
        ) == []

    def test_pragma_suppresses(self, lint):
        assert lint(
            """
            from repro.parallel import resolve_payload

            def worker(ref):
                scratch = resolve_payload(ref)
                scratch += 1  # reprolint: allow[pool-safety]
                return scratch
            """
        ) == []


class TestRegistryContracts:
    ESTIMATOR_PREAMBLE = (
        "from repro.estimation.base import Estimator\n"
        "from repro.estimation.registry import register\n"
    )

    @pytest.fixture
    def lint_estimator(self, lint):
        """Lint a class-definition snippet below the estimator imports."""

        def run(body: str, **kwargs):
            return lint(self.ESTIMATOR_PREAMBLE + textwrap.dedent(body), **kwargs)

        return run

    def test_missing_estimate_flagged(self, lint_estimator):
        found = lint_estimator(
            """
            @register()
            class Broken(Estimator):
                name = "broken"
            """
        )
        assert codes(found) == ["REPRO401"]
        assert "estimate()" in found[0].message

    def test_inherited_estimate_is_accepted(self, lint_estimator):
        assert lint_estimator(
            """
            class BaseImpl(Estimator):
                name = "base-impl"

                def estimate(self, problem):
                    return problem

            @register()
            class Derived(BaseImpl):
                name = "derived"
            """
        ) == []

    def test_incompatible_estimate_signature(self, lint_estimator):
        found = lint_estimator(
            """
            @register()
            class Wrong(Estimator):
                name = "wrong"

                def estimate(self, problem, mode):
                    return problem
            """
        )
        assert codes(found) == ["REPRO401"]
        assert "incompatible signature" in found[0].message

    def test_defaulted_extras_are_compatible(self, lint_estimator):
        assert lint_estimator(
            """
            @register()
            class Flexible(Estimator):
                name = "flexible"

                def estimate(self, problem, tolerance=1e-9, *, verbose=False):
                    return problem
            """
        ) == []

    def test_missing_registry_name(self, lint_estimator):
        found = lint_estimator(
            """
            @register()
            class Nameless(Estimator):
                def estimate(self, problem):
                    return problem
            """
        )
        assert codes(found) == ["REPRO401"]
        assert "registry name" in found[0].message

    def test_explicit_register_name_counts(self, lint_estimator):
        assert lint_estimator(
            """
            @register("explicit")
            class Explicit(Estimator):
                def estimate(self, problem):
                    return problem
            """
        ) == []

    def test_unregistered_classes_are_ignored(self, lint):
        assert lint(
            """
            class Helper:
                def estimate(self, problem, extra, flags):
                    return problem
            """
        ) == []


class TestFaultHandling:
    def test_silent_swallow_is_flagged(self, lint):
        found = lint(
            """
            from repro.errors import EstimationError, SolverError

            def solve(estimator, problem, prior):
                try:
                    return estimator.estimate(problem).vector
                except (EstimationError, SolverError):
                    return prior
            """
        )
        assert codes(found) == ["REPRO501"]
        assert found[0].line == 7
        assert "EstimationError" in found[0].message

    def test_reraise_passes(self, lint):
        found = lint(
            """
            from repro.errors import EstimationError

            def solve(estimator, problem):
                try:
                    return estimator.estimate(problem)
                except EstimationError as exc:
                    raise EstimationError(f"wrapped: {exc}") from exc
            """
        )
        assert codes(found) == []

    def test_warning_passes(self, lint):
        found = lint(
            """
            import warnings
            from repro.errors import SolverError

            def solve(solver, problem, prior):
                try:
                    return solver(problem)
                except SolverError as exc:
                    warnings.warn(f"fell back: {exc}", RuntimeWarning)
                    return prior
            """
        )
        assert codes(found) == []

    def test_structured_record_passes(self, lint):
        found = lint(
            """
            from repro.errors import EstimationError
            from repro.resilience.report import FailureReason

            def solve(estimator, problem):
                try:
                    return estimator.estimate(problem).vector, None
                except EstimationError as exc:
                    return None, FailureReason.from_exception(exc, spec="x")
            """
        )
        assert codes(found) == []

    def test_non_repro_exceptions_ignored(self, lint):
        found = lint(
            """
            def probe(mapping, key):
                try:
                    return mapping[key]
                except KeyError:
                    return None
            """
        )
        assert codes(found) == []

    def test_pragma_suppresses(self, lint):
        found = lint(
            """
            from repro.errors import TopologyError

            def is_valid(network):
                try:
                    network.validate()
                except TopologyError:  # reprolint: allow[fault-handling]
                    return False
                return True
            """
        )
        assert codes(found) == []

    def test_allowlist_suppresses(self, lint):
        entry = AllowlistEntry(
            rule="fault-handling",
            path="snippet.py",
            fragment="except EstimationError",
            reason="reviewed",
        )
        found = lint(
            """
            from repro.errors import EstimationError

            def solve(estimator, problem, prior):
                try:
                    return estimator.estimate(problem).vector
                except EstimationError:
                    return prior
            """,
            allowlist=[entry],
        )
        assert codes(found) == []


class TestTelemetry:
    SRC = "src/repro/evaluation/timing.py"

    def test_module_attribute_timer_flagged(self, lint):
        found = lint(
            """
            import time

            def run(fn):
                start = time.perf_counter()
                result = fn()
                return result, time.perf_counter() - start
            """,
            path=self.SRC,
        )
        assert codes(found) == ["REPRO601", "REPRO601"]
        assert [d.line for d in found] == [5, 7]
        assert "perf_counter" in found[0].message

    def test_module_alias_and_bare_import_flagged(self, lint):
        found = lint(
            """
            import time as _t
            from time import monotonic as now

            def stamp():
                return _t.time(), now()
            """,
            path=self.SRC,
        )
        assert codes(found) == ["REPRO601", "REPRO601"]
        assert "time" in found[0].message
        assert "monotonic" in found[1].message

    def test_sleep_and_unrelated_names_pass(self, lint):
        found = lint(
            """
            import time

            def wait(store):
                time.sleep(0.01)
                return store.time()  # a method named time, not the module
            """,
            path=self.SRC,
        )
        assert codes(found) == []

    def test_telemetry_package_itself_exempt(self, lint):
        found = lint(
            """
            import time

            def clock():
                return time.time()
            """,
            path="src/repro/telemetry/spans.py",
        )
        assert codes(found) == []

    def test_outside_src_ignored(self, lint):
        found = lint(
            """
            import time

            def bench(fn):
                start = time.perf_counter()
                fn()
                return time.perf_counter() - start
            """,
            path="benchmarks/bench_thing.py",
        )
        assert codes(found) == []

    def test_pragma_suppresses(self, lint):
        found = lint(
            """
            import time

            def deadline():
                return time.monotonic()  # reprolint: allow[telemetry]
            """,
            path=self.SRC,
        )
        assert codes(found) == []

    def test_allowlist_suppresses(self, lint):
        entry = AllowlistEntry(
            rule="telemetry",
            path="src/repro/evaluation/timing.py",
            fragment="time.monotonic()",
            reason="reviewed",
        )
        found = lint(
            """
            import time

            def deadline():
                return time.monotonic()
            """,
            allowlist=[entry],
            path=self.SRC,
        )
        assert codes(found) == []


class TestEngine:
    def test_parse_pragmas(self):
        pragmas = parse_pragmas(
            [
                "x = 1",
                "y = 2  # reprolint: allow[determinism, pool-safety]",
                "z = 3  # reprolint: allow[*]",
            ]
        )
        assert pragmas == {2: {"determinism", "pool-safety"}, 3: {"*"}}

    def test_syntax_error_reported_not_crashed(self, lint):
        found = lint("def broken(:\n    pass\n")
        assert codes(found) == ["REPRO000"]

    def test_malformed_allowlist_raises(self, tmp_path):
        bad = tmp_path / "allowlist.txt"
        bad.write_text("determinism | only-three | fields\n")
        with pytest.raises(ValueError, match="allowlist"):
            load_allowlist(bad)

    def test_rule_registry_is_complete(self):
        by_name = rules_by_name()
        assert set(by_name) == {
            "sparse-safety",
            "determinism",
            "pool-safety",
            "registry-contracts",
            "fault-handling",
            "telemetry",
        }
        assert len({rule.code for rule in ALL_RULES}) == len(ALL_RULES)
