"""Logic of Constraints (LOC) assertions over simulation traces.

This subpackage implements the paper's assertion-based analysis
methodology end to end:

* a lexer/parser for LOC formulas (:mod:`~repro.loc.parser`), covering
  both **checker** formulas (``cycle(deq[i]) - cycle(enq[i]) <= 50``)
  and **distribution** formulas with the paper's three extended
  operators, spelled ``in`` / ``below`` / ``above`` here::

      (energy(forward[i+100]) - energy(forward[i])) /
      (time(forward[i+100]) - time(forward[i]))  below <0.5, 2.25, 0.01>

  ``in``     bins values into ``(-inf, min], (min, min+step], ... (max, +inf)``;
  ``below``  reports, for each cutoff, the fraction of instances **<=** it
             (the CDF view used for the paper's power plots);
  ``above``  reports the fraction of instances **>=** each cutoff
             (the CCDF view used for the throughput plots).

* one **code generator** (:mod:`~repro.loc.codegen`) that turns every
  formula into straight-line Python — the paper's "automatically
  generated, simulation-language-independent" tooling.  The same
  generated code runs in-process and as a standalone, dependency-free
  analyzer script for a trace file;
* **monitors** (:mod:`~repro.loc.monitor`): the generated code wrapped
  by :func:`~repro.loc.monitor.build_monitor`, subscribed to a run's
  :class:`~repro.trace.bus.TraceBus` for simulation-time checking, or
  driven offline by :func:`~repro.loc.checker.check_trace` /
  :func:`~repro.loc.analyzer.analyze_trace`;
* the result types: a **checker** verdict with its violations
  (:mod:`~repro.loc.checker`) and a **distribution** over the formula's
  ranges (:mod:`~repro.loc.analyzer`);
* the paper's formulas (1)-(3) as ready-made builders
  (:mod:`~repro.loc.builtin`).
"""

from repro.loc.analyzer import DistributionResult, analyze_trace
from repro.loc.ast_nodes import (
    AnnotationRef,
    BinaryOp,
    CheckerFormula,
    DistributionFormula,
    IndexExpr,
    Negate,
    Number,
)
from repro.loc.builtin import (
    forwarding_latency_formula,
    power_distribution_formula,
    throughput_distribution_formula,
)
from repro.loc.checker import CheckResult, Violation, check_trace
from repro.loc.codegen import (
    compile_monitor_feed,
    generate_analyzer_source,
    generate_monitor_source,
)
from repro.loc.lexer import Token, tokenize
from repro.loc.monitor import Monitor, build_monitor, run_monitor
from repro.loc.parser import parse_formula

__all__ = [
    "AnnotationRef",
    "BinaryOp",
    "CheckResult",
    "CheckerFormula",
    "DistributionFormula",
    "DistributionResult",
    "IndexExpr",
    "Monitor",
    "Negate",
    "Number",
    "Token",
    "Violation",
    "analyze_trace",
    "build_monitor",
    "check_trace",
    "compile_monitor_feed",
    "forwarding_latency_formula",
    "generate_analyzer_source",
    "generate_monitor_source",
    "parse_formula",
    "power_distribution_formula",
    "run_monitor",
    "throughput_distribution_formula",
    "tokenize",
]
