"""``registry-contracts``: registered estimators honour the advertised API.

The estimator registry (:mod:`repro.estimation.registry`) is what lets the
experiment runners, their ``registry_specs()`` rows and the planning
sweeps compose method sets by *name* — which also means a registered class that quietly
drops part of the :class:`~repro.estimation.base.Estimator` surface fails
at a distance: a missing ``estimate`` only explodes inside a sweep, and an
incompatible ``estimate_series`` override silently falls out of the
batched path.

For every class decorated with ``@register(...)`` the rule checks, across
all scanned files (inheritance is resolved project-wide by class name):

* a concrete (non-``abstractmethod``) ``estimate`` exists in the class or
  an ancestor, with an ``(self, problem)``-compatible signature;
* ``estimate_series`` is either inherited from the generic batched
  fallback or overridden with a compatible ``(self, problem)`` signature;
* the class carries a registry ``name`` (a ``name = "..."`` class
  attribute or an explicit ``@register("...")`` argument).

Signature compatibility means: exactly one required positional parameter
besides ``self``; any extra parameters must carry defaults (so the
runners' positional call sites keep working).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from reprolint.astutil import dotted_name
from reprolint.engine import Diagnostic, ProjectContext

__all__ = ["RULE"]

#: Methods whose overrides must stay call-compatible with the base class.
SINGLE_ARGUMENT_METHODS = ("estimate", "estimate_series")


@dataclass
class _ClassInfo:
    name: str
    path: str
    line: int
    column: int
    bases: list[str]
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    abstract_methods: set[str] = field(default_factory=set)
    class_attributes: set[str] = field(default_factory=set)
    registered_name: Optional[str] = None
    is_registered: bool = False


class _RegistryContractsRule:
    name = "registry-contracts"
    code = "REPRO401"
    description = (
        "every @register()'d estimator defines the advertised API surface "
        "(estimate / estimate_series) with compatible signatures"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        classes = self._collect_classes(project)
        for info in classes.values():
            if info.is_registered:
                yield from self._check_class(info, classes)

    # ------------------------------------------------------------------
    def _collect_classes(self, project: ProjectContext) -> dict[str, _ClassInfo]:
        classes: dict[str, _ClassInfo] = {}
        for context in project.files:
            for node in ast.walk(context.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                info = _ClassInfo(
                    name=node.name,
                    path=context.path,
                    line=node.lineno,
                    column=node.col_offset + 1,
                    bases=[
                        base_name.split(".")[-1]
                        for base in node.bases
                        if (base_name := dotted_name(base)) is not None
                    ],
                )
                for statement in node.body:
                    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if isinstance(statement, ast.FunctionDef):
                            info.methods[statement.name] = statement
                        if self._is_abstract(statement):
                            info.abstract_methods.add(statement.name)
                    elif isinstance(statement, ast.Assign):
                        for target in statement.targets:
                            if isinstance(target, ast.Name):
                                info.class_attributes.add(target.id)
                    elif isinstance(statement, ast.AnnAssign) and isinstance(
                        statement.target, ast.Name
                    ):
                        info.class_attributes.add(statement.target.id)
                self._read_register_decorator(node, info)
                # Last definition wins on duplicate class names — matches
                # how a scan of one package behaves in practice.
                classes[node.name] = info
        return classes

    @staticmethod
    def _is_abstract(method: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for decorator in method.decorator_list:
            name = dotted_name(decorator)
            if name is not None and name.split(".")[-1] == "abstractmethod":
                return True
        return False

    @staticmethod
    def _read_register_decorator(node: ast.ClassDef, info: _ClassInfo) -> None:
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            target = call.func if call is not None else decorator
            name = dotted_name(target)
            if name is None or name.split(".")[-1] != "register":
                continue
            info.is_registered = True
            if call is not None and call.args:
                first = call.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    info.registered_name = first.value

    # ------------------------------------------------------------------
    def _mro(self, info: _ClassInfo, classes: dict[str, _ClassInfo]) -> list[_ClassInfo]:
        """The class and its project-visible ancestors (by simple name)."""
        chain: list[_ClassInfo] = []
        seen: set[str] = set()
        stack = [info.name]
        while stack:
            name = stack.pop(0)
            if name in seen or name not in classes:
                continue
            seen.add(name)
            current = classes[name]
            chain.append(current)
            stack.extend(current.bases)
        return chain

    def _find_method(
        self, chain: list[_ClassInfo], method: str
    ) -> tuple[Optional[_ClassInfo], Optional[ast.FunctionDef], bool]:
        """First definition of ``method`` along the chain, plus abstractness."""
        for info in chain:
            if method in info.methods:
                return info, info.methods[method], method in info.abstract_methods
        return None, None, False

    def _check_class(
        self, info: _ClassInfo, classes: dict[str, _ClassInfo]
    ) -> Iterator[Diagnostic]:
        chain = self._mro(info, classes)

        owner, method, is_abstract = self._find_method(chain, "estimate")
        if method is None or is_abstract:
            yield self._diagnostic(
                info,
                f"registered estimator {info.name} has no concrete estimate() "
                "implementation — the registry contract requires "
                "estimate(self, problem)",
            )

        for method_name in SINGLE_ARGUMENT_METHODS:
            if method_name not in info.methods:
                continue  # inherited implementations were checked on their owner
            problem = self._signature_problem(info.methods[method_name])
            if problem is not None:
                yield self._diagnostic(
                    info,
                    f"{info.name}.{method_name} has an incompatible signature: "
                    f"{problem} (runners call it positionally with one argument)",
                    line=info.methods[method_name].lineno,
                    column=info.methods[method_name].col_offset + 1,
                )

        if info.registered_name is None:
            named = [c for c in chain if "name" in c.class_attributes]
            if not named:
                yield self._diagnostic(
                    info,
                    f"registered estimator {info.name} has no registry name: add a "
                    "name = \"...\" class attribute or pass @register(\"...\")",
                )

    def _signature_problem(self, method: ast.FunctionDef) -> Optional[str]:
        args = method.args
        positional = list(args.posonlyargs) + list(args.args)
        if not positional or positional[0].arg != "self":
            return "first parameter must be self"
        required = positional[1:]
        defaults = list(args.defaults)
        num_defaulted = len(defaults)
        if num_defaulted:
            required = required[:-num_defaulted] if num_defaulted < len(required) else []
        if len(required) != 1:
            return (
                f"expected exactly one required parameter after self, "
                f"found {len(required)}"
            )
        for keyword in args.kwonlyargs:
            index = args.kwonlyargs.index(keyword)
            if args.kw_defaults[index] is None:
                return f"keyword-only parameter {keyword.arg!r} has no default"
        return None

    def _diagnostic(
        self,
        info: _ClassInfo,
        message: str,
        line: Optional[int] = None,
        column: Optional[int] = None,
    ) -> Diagnostic:
        return Diagnostic(
            path=info.path,
            line=line if line is not None else info.line,
            column=column if column is not None else info.column,
            rule=self.name,
            code=self.code,
            message=message,
        )


RULE = _RegistryContractsRule()
