"""reprolint — the repository's AST-based invariant checker.

Four rule families guard the invariants PRs 1-6 established and the
benchmark ledger (``BENCH.json``) depends on:

* ``sparse-safety`` — no dense materialisation of routing operators
  outside allowlisted sites;
* ``determinism`` — every random draw is traceable to an explicit seed;
* ``pool-safety`` — process-pool tasks are module-level and workers never
  mutate shared payloads;
* ``registry-contracts`` — registered estimators implement the API
  surface the runners and the README advertise.

Run it as ``python -m reprolint src benchmarks examples`` (with ``tools``
on ``PYTHONPATH``).  Suppress individual findings with an inline
``# reprolint: allow[rule-name]`` pragma or a reviewed entry in
``tools/reprolint/allowlist.txt``.
"""

from __future__ import annotations

from reprolint.engine import (
    AllowlistEntry,
    Diagnostic,
    FileContext,
    ProjectContext,
    load_allowlist,
    run_rules,
)
from reprolint.rules import ALL_RULES, rules_by_name

__all__ = [
    "ALL_RULES",
    "AllowlistEntry",
    "Diagnostic",
    "FileContext",
    "ProjectContext",
    "load_allowlist",
    "run_rules",
    "rules_by_name",
]

__version__ = "1.0"
