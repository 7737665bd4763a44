"""``sparse-safety``: no dense materialisation of routing operators.

The sparse paths owe their scale to keeping the ``(links x pairs)``
routing matrix in CSR end to end: the ledger's ``large-scale`` tier runs
five estimators at N=500 with tracemalloc peaks of at most ~250 MB
against the 2,994 MB dense routing footprint.  A single careless
``.toarray()`` — or an ``np.asarray`` / ``np.linalg`` call, which silently
densifies operator objects — on a hot path reverts that.  The tracemalloc
guard in the benchmark only catches the regression at bench time; this
rule catches it at lint time.

The rule runs a light per-scope taint analysis: expressions are
*routing-typed* when they come from

* attribute chains ending in ``.routing`` / ``.routing_matrix`` (the
  conventional homes of :class:`RoutingMatrix` objects) or in ``.native`` /
  ``._csr`` (its CSR storage, which is just as dense once ``toarray``-ed),
* constructor or builder calls (``RoutingMatrix``, ``build_routing_matrix``,
  ``build_ecmp_routing_matrix``), or
* parameters annotated with a routing type,

and assignments propagate the taint.  On a routing-typed expression the
rule flags ``.toarray()`` calls, ``np.asarray(...)`` and any
``np.linalg.*`` call.  Legitimate dense sites — the one cached dense view,
``RoutingMatrix.matrix`` — live in the checked-in allowlist or carry an
inline ``# reprolint: allow[sparse-safety]`` pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator

from reprolint.astutil import annotation_names, dotted_name, walk_scopes
from reprolint.engine import Diagnostic, FileContext

__all__ = ["RULE"]

#: Attribute names whose access yields a routing matrix or its CSR storage.
ROUTING_ATTRIBUTES = {"routing", "routing_matrix", "native", "_csr"}

#: Constructors / builders returning routing matrices.
ROUTING_FACTORIES = {"RoutingMatrix", "build_routing_matrix", "build_ecmp_routing_matrix"}

#: Annotation identifiers marking a parameter as routing-typed.
ROUTING_ANNOTATIONS = {"RoutingMatrix", "RoutingOperator"}


class _SparseSafetyRule:
    name = "sparse-safety"
    code = "REPRO101"
    description = (
        "no .toarray()/np.asarray/np.linalg.* on RoutingMatrix objects or their "
        "CSR storage outside allowlisted sites"
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
        followed by ``b = a``).
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
            return name is not None and name.split(".")[-1] in ROUTING_FACTORIES
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
