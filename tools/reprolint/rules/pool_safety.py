"""``pool-safety``: a static race/pickling detector for the pool layers.

The PR 6 shared-payload machinery (:mod:`repro.parallel`) made the pool
engines fast by shipping a ~100-byte token per task instead of re-pickling
routing matrices — and made them *correct* by ensuring workers operate on
an exact copy of the parent's objects, so serial and parallel runs emit
identical records (an invariant pinned by the serial==parallel tests and
the ledger's experiment-engine tier).  Three coding mistakes silently break
that contract:

1. submitting a lambda, a nested function or a bound method to a process
   pool — unpicklable under spawn, and a closure can capture a routing
   matrix that then gets re-pickled per task, exactly what the payload
   tokens exist to avoid;
2. capturing large payloads in task arguments when a
   :func:`~repro.parallel.share_payload` token would do (the closure form
   of the same mistake);
3. a worker *writing* to an object obtained from
   :func:`~repro.parallel.resolve_payload`: under ``fork`` the write hits
   copy-on-write pages (invisible corruption of worker-local state that
   diverges from serial runs); under ``spawn`` it mutates a per-worker
   copy, so results depend on which worker ran which task.

This rule checks (1) directly at every ``submit``/``map`` call on an
executor created by ``payload_executor`` / ``ProcessPoolExecutor``, and
(3) by tainting, inside every module-level function, the names bound from
``resolve_payload(...)`` (including tuple unpacking and subscripted
elements) and flagging assignments, augmented assignments, deletions and
known in-place-mutating method calls on them.  (2) is enforced
structurally by (1): only module-level functions may be submitted, and
module-level functions cannot close over locals.

The runtime backstop is ``resolve_payload`` itself, which returns
read-only ndarray views — but that only trips when a mutating task
actually runs; this rule fails the build before it ships.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from reprolint.astutil import dotted_name, walk_scopes
from reprolint.engine import Diagnostic, FileContext

__all__ = ["RULE"]

#: Calls that create a process-pool executor.
EXECUTOR_FACTORIES = {"payload_executor", "ProcessPoolExecutor"}

#: Executor methods that take a callable to run in a worker.
SUBMIT_METHODS = {"submit", "map"}

#: ndarray / container methods that mutate the receiver in place.
MUTATING_METHODS = {
    "fill", "sort", "partition", "put", "itemset", "resize", "setflags",
    "append", "extend", "insert", "remove", "reverse", "clear", "pop",
    "popitem", "update", "setdefault", "add", "discard",
}


class _PoolSafetyRule:
    name = "pool-safety"
    code = "REPRO301"
    description = (
        "pool tasks must be module-level functions, and workers must not mutate "
        "resolve_payload() results"
    )

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        module_functions = {
            statement.name
            for statement in context.tree.body
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for scope in walk_scopes(context.tree):
            nested_functions = {
                statement.name
                for statement in scope.body
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
            } - module_functions
            executors = self._executor_names(scope)
            for node in scope.expressions():
                yield from self._check_submission(
                    node, executors, module_functions, nested_functions, context
                )
        for scope in walk_scopes(context.tree):
            if isinstance(scope.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_worker_mutations(scope, context)

    # ------------------------------------------------------------------
    # task submission
    # ------------------------------------------------------------------
    def _executor_names(self, scope) -> set[str]:
        """Names bound to process-pool executors in this scope."""
        names: set[str] = set()
        for statement in scope.statements():
            if isinstance(statement, ast.Assign) and self._is_executor(statement.value):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(statement, (ast.With, ast.AsyncWith)):
                for item in statement.items:
                    if (
                        self._is_executor(item.context_expr)
                        and isinstance(item.optional_vars, ast.Name)
                    ):
                        names.add(item.optional_vars.id)
        return names

    @staticmethod
    def _is_executor(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = dotted_name(node.func)
        return name is not None and name.split(".")[-1] in EXECUTOR_FACTORIES

    def _check_submission(
        self,
        node: ast.expr,
        executors: set[str],
        module_functions: set[str],
        nested_functions: set[str],
        context: FileContext,
    ) -> Iterator[Diagnostic]:
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in SUBMIT_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in executors
            and node.args
        ):
            return
        task = node.args[0]
        if isinstance(task, ast.Lambda):
            yield self._diagnostic(
                context,
                task,
                "lambda submitted to a process pool: lambdas are unpicklable and "
                "close over the parent scope — define a module-level worker and "
                "ship payloads via share_payload()",
            )
        elif isinstance(task, ast.Name):
            if task.id in nested_functions:
                yield self._diagnostic(
                    context,
                    task,
                    f"nested function {task.id!r} submitted to a process pool: "
                    "closures are unpicklable and capture the enclosing frame — "
                    "move the worker to module level and ship payloads via "
                    "share_payload()",
                )
        elif isinstance(task, ast.Attribute):
            yield self._diagnostic(
                context,
                task,
                f"bound callable {dotted_name(task) or task.attr!r} submitted to a "
                "process pool: the whole receiver object is pickled into every "
                "task — use a module-level function and a share_payload() token",
            )

    # ------------------------------------------------------------------
    # worker-side mutation of shared payloads
    # ------------------------------------------------------------------
    def _check_worker_mutations(self, scope, context: FileContext) -> Iterator[Diagnostic]:
        tainted = self._payload_names(scope)
        if not tainted:
            return
        for statement in scope.statements():
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    yield from self._check_write_target(target, tainted, context)
            elif isinstance(statement, ast.AugAssign):
                yield from self._check_write_target(
                    statement.target, tainted, context, augmented=True
                )
            elif isinstance(statement, ast.Delete):
                for target in statement.targets:
                    yield from self._check_write_target(target, tainted, context)
        for node in scope.expressions():
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and self._is_tainted(node.func.value, tainted)
            ):
                yield self._diagnostic(
                    context,
                    node,
                    f"worker mutates a shared payload: .{node.func.attr}() on "
                    f"{self._describe(node.func.value)} writes to an object other "
                    "workers (and serial runs) read — copy it first",
                )

    def _payload_names(self, scope) -> set[str]:
        """Names bound (directly or by unpacking) from ``resolve_payload``."""
        tainted: set[str] = set()
        for _ in range(2):
            for statement in scope.statements():
                if not isinstance(statement, ast.Assign):
                    continue
                if self._is_payload_value(statement.value, tainted):
                    for target in statement.targets:
                        self._bind_target(target, tainted)
        return tainted

    def _is_payload_value(self, node: ast.expr, tainted: set[str]) -> bool:
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name is not None and name.split(".")[-1] == "resolve_payload"
        if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)):
            return self._is_tainted(node, tainted)
        return False

    @staticmethod
    def _bind_target(target: ast.expr, tainted: set[str]) -> None:
        if isinstance(target, ast.Name):
            tainted.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                _PoolSafetyRule._bind_target(element, tainted)

    def _is_tainted(self, node: ast.expr, tainted: set[str]) -> bool:
        """Whether the expression reaches into a resolved payload."""
        current = node
        while isinstance(current, (ast.Subscript, ast.Attribute)):
            current = current.value
        return isinstance(current, ast.Name) and current.id in tainted

    def _check_write_target(
        self,
        target: ast.expr,
        tainted: set[str],
        context: FileContext,
        augmented: bool = False,
    ) -> Iterator[Diagnostic]:
        # Rebinding a plain name is fine (x = payload; x = other); writing
        # *into* the payload (x[i] = ..., x.attr = ..., x += ...) is not.
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            if self._is_tainted(target, tainted):
                yield self._diagnostic(
                    context,
                    target,
                    "worker writes into a shared payload: "
                    f"{self._describe(target)} comes from resolve_payload() and is "
                    "shared (copy-on-write under fork) — copy before mutating",
                )
        elif augmented and isinstance(target, ast.Name) and target.id in tainted:
            yield self._diagnostic(
                context,
                target,
                f"augmented assignment to payload name {target.id!r}: in-place "
                "operators mutate the shared object — use a fresh array instead",
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._check_write_target(element, tainted, context, augmented)

    # ------------------------------------------------------------------
    @staticmethod
    def _describe(node: ast.expr) -> str:
        name = dotted_name(node)
        if name is not None:
            return name
        current = node
        while isinstance(current, (ast.Subscript, ast.Attribute)):
            current = current.value
        inner = dotted_name(current)
        return f"{inner}[...]" if inner else "<expression>"

    def _diagnostic(self, context: FileContext, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=context.path,
            line=node.lineno,
            column=node.col_offset + 1,
            rule=self.name,
            code=self.code,
            message=message,
        )


RULE = _PoolSafetyRule()
