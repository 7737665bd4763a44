"""``determinism``: every random draw must be traceable to a seed.

The repository's records are only comparable because runs are
reproducible: generators must rebuild bit-identical topologies
(``large_scenario(n, seed)`` backs the ledger's large-scale timings),
serial and parallel experiment runs must produce identical records, and
benchmark MRE numbers are pinned in committed JSON records.  One unseeded
``default_rng()`` in any of those paths turns a regression signal into
noise.

The rule flags, in every checked file:

* legacy global-state NumPy randomness — any ``np.random.<fn>(...)`` draw
  or ``np.random.seed(...)`` (global state leaks across call sites, so
  even the seeded form is banned in favour of ``Generator`` objects);
* ``np.random.default_rng()`` / ``default_rng(None)`` and
  ``np.random.RandomState()`` / ``RandomState(None)`` — generator
  construction without a seed;
* calls to the repo's own stochastic entry points whose ``seed`` defaults
  to ``None`` (``random_backbone``, ``poisson_series``, ...) without an
  explicit ``seed=`` or ``rng=`` argument.

APIs that deliberately accept "give me fresh entropy" semantics carry an
inline ``# reprolint: allow[determinism]`` pragma with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from reprolint.astutil import dotted_name
from reprolint.engine import Diagnostic, FileContext

__all__ = ["RULE"]

#: Legacy ``np.random`` module-level functions that draw from (or mutate)
#: the hidden global state.
LEGACY_GLOBAL_FUNCTIONS = {
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "gumbel", "hypergeometric",
    "laplace", "logistic", "lognormal", "logseries", "multinomial",
    "multivariate_normal", "negative_binomial", "noncentral_chisquare",
    "noncentral_f", "normal", "pareto", "permutation", "poisson", "power",
    "rand", "randint", "randn", "random", "random_integers", "random_sample",
    "ranf", "rayleigh", "sample", "seed", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal", "standard_t",
    "triangular", "uniform", "vonmises", "wald", "weibull", "zipf",
}

#: Repo entry points whose ``seed`` parameter defaults to ``None``: calling
#: them without ``seed=`` / ``rng=`` silently produces irreproducible data.
SEED_REQUIRED_FUNCTIONS = {
    "random_backbone",
    "large_scenario",
    "poisson_series",
    "base_demand_matrix",
    "netflow_smoothed_series",
    "SyntheticTrafficModel",
}


class _DeterminismRule:
    name = "determinism"
    code = "REPRO201"
    description = (
        "no unseeded np.random.* / RandomState() / default_rng(), and the repo's "
        "stochastic entry points need an explicit seed= / rng="
    )

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            diagnostic = self._check_call(node, context)
            if diagnostic is not None:
                yield diagnostic

    # ------------------------------------------------------------------
    def _check_call(self, node: ast.Call, context: FileContext) -> Optional[Diagnostic]:
        name = dotted_name(node.func)
        if name is None:
            return None
        tail = name.split(".")[-1]
        is_np_random = name.startswith(("np.random.", "numpy.random."))

        if is_np_random and tail in LEGACY_GLOBAL_FUNCTIONS:
            return self._diagnostic(
                context,
                node,
                f"legacy global-state call {name}(...): construct a seeded "
                "np.random.default_rng(seed) generator and draw from it instead",
            )
        if tail == "default_rng" and (is_np_random or name == "default_rng"):
            if self._first_argument_missing_or_none(node):
                return self._diagnostic(
                    context,
                    node,
                    f"unseeded {name}(): pass an explicit seed so runs are reproducible",
                )
            return None
        if tail == "RandomState" and (is_np_random or name == "RandomState"):
            if self._first_argument_missing_or_none(node):
                return self._diagnostic(
                    context,
                    node,
                    f"unseeded {name}(): pass an explicit seed so runs are reproducible",
                )
            return None
        if tail in SEED_REQUIRED_FUNCTIONS and not is_np_random:
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            if "seed" not in keywords and "rng" not in keywords:
                # Positional seeds count too: compare against the known
                # signatures is overkill — a call spelling seed positionally
                # is rare enough that the pragma covers it.
                return self._diagnostic(
                    context,
                    node,
                    f"{tail}(...) draws random numbers but was called without an "
                    "explicit seed= (its seed defaults to None)",
                )
        return None

    @staticmethod
    def _first_argument_missing_or_none(node: ast.Call) -> bool:
        if node.args:
            first = node.args[0]
            return isinstance(first, ast.Constant) and first.value is None
        for keyword in node.keywords:
            if keyword.arg == "seed":
                return isinstance(keyword.value, ast.Constant) and keyword.value.value is None
        return True

    def _diagnostic(self, context: FileContext, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=context.path,
            line=node.lineno,
            column=node.col_offset + 1,
            rule=self.name,
            code=self.code,
            message=message,
        )


RULE = _DeterminismRule()
