"""Static invariant checker for the repo's own determinism contracts.

``repro lint`` runs three AST-based pass families from one shared
parse cache (one ``ast.parse`` per file):

* **determinism** (``DET1xx``) — hazards that can break cross-backend
  bit-identity (:mod:`~repro.analysis.lint.determinism`);
* **LOC formulas** (``LOC2xx``) — bound vacuity, unknown event names,
  parse failures
  (:mod:`~repro.analysis.lint.formulas`, registry from
  :mod:`~repro.analysis.lint.channels`);
* **wire/schema** (``WIRE3xx``) — protocol key vocabulary and schema
  version drift (:mod:`~repro.analysis.lint.wire`).

Findings are suppressed per line with ``# repro: noqa(RULE)``; the
``--strict`` CI lane fails on any unsuppressed finding.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.analysis.lint.channels import ChannelRegistry, build_channel_registry
from repro.analysis.lint.core import (
    Finding,
    LintResult,
    Module,
    ModuleCache,
)
from repro.analysis.lint.determinism import (
    DETERMINISM_SCOPE,
    check_determinism,
)
from repro.analysis.lint.format import FORMATS, render
from repro.analysis.lint.formulas import analyze_catalog, catalog_formulas
from repro.analysis.lint.wire import check_wire

__all__ = [
    "ChannelRegistry",
    "DETERMINISM_SCOPE",
    "FORMATS",
    "Finding",
    "LintResult",
    "Module",
    "ModuleCache",
    "analyze_catalog",
    "build_channel_registry",
    "catalog_formulas",
    "check_determinism",
    "check_wire",
    "render",
    "run_lint",
]


def _sort_key(finding: Finding) -> tuple:
    return (finding.path, finding.line, finding.col, finding.code)


def run_lint(root: Union[str, Path], catalog: bool = True) -> LintResult:
    """Run every pass over the tree rooted at ``root``.

    ``catalog=False`` skips the builtin/study-gate formula analysis
    (which imports the scenario catalog) — fixture trees that only
    exercise the file-level passes don't have one.
    """
    cache = ModuleCache(Path(root))
    findings = list(check_determinism(cache))
    findings.extend(check_wire(cache))
    if catalog:
        findings.extend(analyze_catalog(build_channel_registry(cache)))
    findings.sort(key=_sort_key)
    return LintResult(findings=findings, files_scanned=cache.parsed_count())
