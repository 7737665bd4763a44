"""``sparse-safety``: no dense materialisation of routing operators.

PR 5/6 bought their scale wins (BENCH_PR5.json, BENCH_PR6.json) by keeping
the ``(links x pairs)`` routing matrix in CSR end to end: the N=200 tier
runs in an 18 MB tracemalloc peak where the dense path needs 191 MB, and
flat tomogravity at N=500 in ~65 MB against a 2.99 GB dense allowance.  A
single careless ``.toarray()`` — or an ``np.asarray`` / ``np.linalg``
call, which silently densifies operator objects — on a hot path reverts
that.  The tracemalloc guards in the benchmarks only catch the regression
at bench time; this rule catches it at lint time.

The rule runs a light per-scope taint analysis: expressions are
*routing-typed* when they come from

* attribute chains ending in ``.routing`` / ``.backend`` / ``._backend``
  (the conventional homes of :class:`RoutingMatrix` / backend objects),
* constructor or factory calls (``RoutingMatrix``, ``make_backend``,
  ``build_routing_matrix``, ``DenseBackend``, ``SparseBackend``, ...),
* the operator-preserving ``with_backend`` method, or
* parameters annotated with a routing type,

and assignments propagate the taint.  On a routing-typed expression the
rule flags ``.toarray()`` calls, ``np.asarray(...)`` and any
``np.linalg.*`` call.  Legitimate dense sites — the backend module that
*implements* the interface, the documented cached dense views on
``RoutingMatrix``, dense-branch code that is explicitly gated on the
backend kind — live in the checked-in allowlist or carry an inline
``# reprolint: allow[sparse-safety]`` pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator

from reprolint.astutil import annotation_names, dotted_name, walk_scopes
from reprolint.engine import Diagnostic, FileContext

__all__ = ["RULE"]

#: Attribute names whose access yields a routing operator object.
ROUTING_ATTRIBUTES = {"routing", "backend", "_backend", "routing_matrix"}

#: Constructors / factories returning routing operator objects.
ROUTING_FACTORIES = {
    "RoutingMatrix",
    "make_backend",
    "build_routing_matrix",
    "build_ecmp_routing_matrix",
    "DenseBackend",
    "SparseBackend",
}

#: Methods that return another routing operator (taint-preserving).
ROUTING_METHODS = {"with_backend"}

#: Annotation identifiers marking a parameter as routing-typed.
ROUTING_ANNOTATIONS = {
    "RoutingMatrix",
    "RoutingBackend",
    "RoutingOperator",
    "DenseBackend",
    "SparseBackend",
}


class _SparseSafetyRule:
    name = "sparse-safety"
    code = "REPRO101"
    description = (
        "no .toarray()/np.asarray/np.linalg.* on RoutingMatrix/backend objects "
        "outside allowlisted sites"
    )

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        for scope in walk_scopes(context.tree):
            tainted = self._tainted_names(scope)
            for node in scope.expressions():
                yield from self._check_expression(node, tainted, context)

    # ------------------------------------------------------------------
    def _tainted_names(self, scope) -> set[str]:
        """Names bound to routing-typed values anywhere in the scope.

        Two passes over the scope's assignments reach a fixpoint for the
        chains this codebase actually writes (``a = problem.routing``
        followed by ``b = a.with_backend(...)``).
        """
        tainted: set[str] = set()
        args = scope.args
        if args is not None:
            for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                if annotation_names(arg.annotation) & ROUTING_ANNOTATIONS:
                    tainted.add(arg.arg)
        for _ in range(2):
            for statement in scope.statements():
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(statement, ast.Assign):
                    targets, value = statement.targets, statement.value
                elif isinstance(statement, ast.AnnAssign):
                    if annotation_names(statement.annotation) & ROUTING_ANNOTATIONS:
                        if isinstance(statement.target, ast.Name):
                            tainted.add(statement.target.id)
                    targets, value = [statement.target], statement.value
                if value is None or not self._is_routing(value, tainted):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
        return tainted

    def _is_routing(self, node: ast.expr, tainted: set[str]) -> bool:
        """Whether ``node`` evaluates to a routing operator object."""
        if isinstance(node, ast.Name):
            return node.id in tainted
        if isinstance(node, ast.Attribute):
            return node.attr in ROUTING_ATTRIBUTES
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and name.split(".")[-1] in ROUTING_FACTORIES:
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in ROUTING_METHODS:
                return True
        return False

    def _check_expression(
        self, node: ast.expr, tainted: set[str], context: FileContext
    ) -> Iterator[Diagnostic]:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        # <routing>.toarray()
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "toarray"
            and self._is_routing(func.value, tainted)
        ):
            yield self._diagnostic(
                context,
                node,
                f"dense materialisation: {self._describe(func.value)}.toarray() — use the "
                "operator products (matvec/rmatvec/gram) or allowlist this site",
            )
            return
        name = dotted_name(func)
        if name is None:
            return
        flagged = None
        if name in ("np.asarray", "numpy.asarray"):
            flagged = "np.asarray"
        elif name.startswith(("np.linalg.", "numpy.linalg.")):
            flagged = name.replace("numpy.", "np.", 1)
        if flagged is None:
            return
        for argument in list(node.args) + [kw.value for kw in node.keywords]:
            if self._is_routing(argument, tainted) or self._is_dense_of_routing(
                argument, tainted
            ):
                yield self._diagnostic(
                    context,
                    node,
                    f"{flagged} applied to routing operator "
                    f"{self._describe(argument)} forces a dense (links x pairs) array",
                )
                break

    def _is_dense_of_routing(self, node: ast.expr, tainted: set[str]) -> bool:
        """``X.toarray()`` where X is routing-typed (already dense, still flagged)."""
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "toarray"
            and self._is_routing(node.func.value, tainted)
        )

    @staticmethod
    def _describe(node: ast.expr) -> str:
        name = dotted_name(node)
        if name is not None:
            return name
        if isinstance(node, ast.Call):
            inner = dotted_name(node.func)
            return f"{inner}(...)" if inner else "<call>"
        return "<expression>"

    def _diagnostic(self, context: FileContext, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=context.path,
            line=node.lineno,
            column=node.col_offset + 1,
            rule=self.name,
            code=self.code,
            message=message,
        )


RULE = _SparseSafetyRule()
