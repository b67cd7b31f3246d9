"""One LOC engine: generated Python code for every formula.

The paper's methodology generates *stand-alone checkers, independent of
any simulation language and platform* from each LOC formula.  This module
does the same for Python.  :func:`generate_monitor_source` is the one
code generator: it turns a formula into the source of
``_make_monitor() -> (feeds, collect)``, with one ``feed(row)`` closure
per event name the formula reads and a ``collect()`` that snapshots the
accumulated result.  A row is one annotation tuple ``(cycle, time,
energy, total_pkt, total_bit)``; every instance is evaluated with the
expression tree flattened into straight-line arithmetic — no event
objects, no AST walk.  The window takes one of two shapes:

* **ring** — a single event at ``i``-relative indices only, the shape
  of every builtin formula and study gate: a fixed-size ring buffer
  holds the index-offset window, and a feed evaluates the instances it
  completes;
* **series** — several events, or absolute pins such as
  ``time(forward[0])``: a deque per event, pinned rows kept aside, and
  a drain shared by the feeds that evaluates each instance once every
  row it reads has arrived.

The same source runs in two places:

* :func:`compile_monitor_feed` executes it in-process, behind
  :func:`repro.loc.monitor.build_monitor` — the online monitors on a
  run's :class:`~repro.trace.bus.TraceBus`, and offline
  :func:`~repro.loc.checker.check_trace` /
  :func:`~repro.loc.analyzer.analyze_trace`;
* :func:`generate_analyzer_source` wraps it into a self-contained script
  (standard library only, ``repro loc-gen``) that reads a text-format
  trace file and prints the report.  The script is also importable as a
  module exposing ``analyze_lines(iterable_of_lines)``.

A formula must read at least one event at an ``i``-relative index.
With absolute pins only, every instance reads the same rows, so the
instances never run out; with constants only, there are none.  The
generator raises :class:`~repro.errors.LocError` for both, and
:class:`~repro.errors.LocSemanticError` for an annotation that is not a
row column.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from functools import lru_cache
from types import CodeType
from typing import Callable, Dict, List, Tuple, Union

from repro.errors import LocError, LocSemanticError
from repro.loc.analyzer import build_edges
from repro.loc.ast_nodes import (
    AnnotationRef,
    BinaryOp,
    CheckerFormula,
    DistributionFormula,
    Expr,
    Formula,
    Negate,
    Number,
)
from repro.loc.parser import parse_formula

#: Column order of the text trace format (mirrors repro.trace.writer)
#: and of the trace bus's annotation rows.
_COLUMNS = ("cycle", "time", "energy", "total_pkt", "total_bit")

#: Compiled monitor sources one process keeps.  The jobs of a catalog
#: study attach 11 distinct monitors.
MONITOR_CODE_MAX = 64


def _formula_tables(formula: Formula) -> Dict[str, Tuple[List[int], List[int]]]:
    """Per event name, sorted: its relative ``i``-offsets and absolute pins."""
    tables: Dict[str, Tuple[set, set]] = {}
    for ref in formula.refs():
        rel, pins = tables.setdefault(ref.event, (set(), set()))
        (pins if ref.index.absolute else rel).add(ref.index.offset)
    return {
        name: (sorted(rel), sorted(pins))
        for name, (rel, pins) in sorted(tables.items())
    }


def _render(expr: Expr, var: Callable[[AnnotationRef], str]) -> str:
    """Python source for ``expr`` over the row variables ``var`` names."""
    if isinstance(expr, Number):
        return repr(expr.value)
    if isinstance(expr, AnnotationRef):
        if expr.annotation not in _COLUMNS:
            raise LocSemanticError(
                f"unknown annotation {expr.annotation!r} in "
                f"{expr.unparse()!r}; known: {', '.join(_COLUMNS)}"
            )
        return f"{var(expr)}[{_COLUMNS.index(expr.annotation)}]"
    if isinstance(expr, BinaryOp):
        return f"({_render(expr.left, var)} {expr.op} {_render(expr.right, var)})"
    if isinstance(expr, Negate):
        return f"(-{_render(expr.operand, var)})"
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _ring_var(offset: int) -> str:
    """Variable name for the row at relative offset ``offset``."""
    if offset == 0:
        return "r0"
    if offset > 0:
        return f"rp{offset}"
    return f"rn{-offset}"


# -- per-kind pieces: accumulator state, nonlocals, instance body, collect

_CHECKER = (
    '''\
    checked = 0
    violations_total = 0
    undefined = 0
    lhs_sum = 0.0
    lhs_min = _INF
    lhs_max = _NINF
    violations = []
''',
    '''\
        nonlocal {loop}, checked, violations_total, undefined
        nonlocal lhs_sum, lhs_min, lhs_max
''',
    '''\
            try:
                lhs = {lhs}
                rhs = {rhs}
            except ZeroDivisionError:
                undefined += 1
                continue
            if lhs != lhs or rhs != rhs:
                undefined += 1
                continue
            checked += 1
            lhs_sum += lhs
            if lhs < lhs_min:
                lhs_min = lhs
            if lhs > lhs_max:
                lhs_max = lhs
            if not (lhs {op} rhs):
                violations_total += 1
                if len(violations) < {max_recorded}:
                    violations.append((i, lhs, rhs))
''',
    '''\
    def collect():
        return (checked, violations_total, undefined,
                lhs_sum, lhs_min, lhs_max, list(violations))
''',
)

_DISTRIBUTION = (
    '''\
    total = 0
    undefined = 0
    value_sum = 0.0
    value_min = _INF
    value_max = _NINF
    counts = [0] * {bins}
''',
    '''\
        nonlocal {loop}, total, undefined
        nonlocal value_sum, value_min, value_max
''',
    '''\
            try:
                value = {expr}
            except ZeroDivisionError:
                undefined += 1
                continue
            if value != value:
                continue
            counts[{bisect}(_EDGES, value)] += 1
            total += 1
            value_sum += value
            if value < value_min:
                value_min = value
            if value > value_max:
                value_max = value
''',
    '''\
    def collect():
        return (total, undefined, value_sum, value_min, value_max,
                list(counts))
''',
)

# With a non-negative lookahead at most one instance becomes ready per
# feed; negative-offset-only formulas unlock a short initial burst,
# which the while loop drains.
_RING = '''\
def _make_monitor():
    buf = [None] * {window}
    count = 0
    next_i = 0
{state}
    def feed(row):
{nonlocals}\
        buf[count % {window}] = row
        count += 1
        limit = count - {ready_lag}
        while next_i <= limit:
            i = next_i
            next_i += 1
            if i < {first_instance}:
                continue
{fetches}
{body}
{collect}
    return {feeds}, collect
'''

# Instances before ``first_instance`` read negative indices and are
# vacuous, so the drain starts there, and a feed stores no row that only
# they would read.  Each evaluated instance then pops one row per event,
# so ``rows<n>[0]`` always holds the instance at the event's smallest
# offset.
_SERIES = '''\
def _make_monitor():
{series}\
    next_i = {first_instance}
{state}
    def drain():
{nonlocals}\
        while {ready}:
            i = next_i
            next_i += 1
{fetches}
{body}
{feed_defs}\
{collect}
    return {feeds}, collect
'''


def _ring_source(event: str, offsets: List[int], kind: Tuple, fields: Dict) -> str:
    """One event at relative offsets: a ring buffer over the window."""
    state, nonlocals, body, collect = kind
    min_off, max_off = offsets[0], offsets[-1]
    window = max_off - min_off + 1
    fetches = []
    for offset in offsets:
        if offset == 0:
            index = f"i % {window}"
        else:
            sign = "+" if offset > 0 else "-"
            index = f"(i {sign} {abs(offset)}) % {window}"
        fetches.append(f"            {_ring_var(offset)} = buf[{index}]")
    return _RING.format(
        window=window,
        # Instance i is ready once i + max_off < count.
        ready_lag=max_off + 1,
        first_instance=max(0, -min_off),
        state=state.format(**fields),
        nonlocals=nonlocals.format(loop="count, next_i"),
        fetches="\n".join(fetches),
        body=body.format(**fields),
        collect=collect,
        feeds=f"{{{event!r}: feed}}",
    )


def _series_source(
    tables: Dict[str, Tuple[List[int], List[int]]], kind: Tuple, fields: Dict
) -> str:
    """Several events or absolute pins: a deque per event and a drain."""
    state, nonlocals, body, collect = kind
    first_instance = max(0, max(-rel[0] for rel, _ in tables.values() if rel))
    series, ready, fetches, feed_defs, feeds = [], [], [], [], {}
    for n, (name, (rel, pins)) in enumerate(tables.items()):
        skip = first_instance + rel[0] if rel else 0
        counted = bool(pins) or skip > 0
        if rel:
            series.append(f"    rows{n} = deque()")
            ready.append(f"len(rows{n}) > {rel[-1] - rel[0]}")
            for offset in rel:
                fetches.append(
                    f"            e{n}_{_ring_var(offset)} = "
                    f"rows{n}[{offset - rel[0]}]"
                )
            fetches.append(f"            rows{n}.popleft()")
        if counted:
            series.append(f"    count{n} = 0")
        series.extend(f"    e{n}_at{pin} = None" for pin in pins)
        if pins:
            ready.append(f"count{n} > {pins[-1]}")
        lines = [f"    def feed{n}(row):"]
        if counted:
            shared = [f"count{n}", *(f"e{n}_at{pin}" for pin in pins)]
            lines.append("        nonlocal " + ", ".join(shared))
        for pin in pins:
            lines += [f"        if count{n} == {pin}:", f"            e{n}_at{pin} = row"]
        if rel and skip:
            lines += [f"        if count{n} >= {skip}:", f"            rows{n}.append(row)"]
        elif rel:
            lines.append(f"        rows{n}.append(row)")
        if counted:
            lines.append(f"        count{n} += 1")
        lines.append("        drain()")
        feed_defs.append("\n".join(lines) + "\n\n")
        feeds[name] = f"feed{n}"
    return _SERIES.format(
        series="".join(line + "\n" for line in series),
        first_instance=first_instance,
        state=state.format(**fields),
        nonlocals=nonlocals.format(loop="next_i"),
        ready=" and ".join(ready),
        fetches="\n".join(fetches),
        body=body.format(**fields),
        feed_defs="".join(feed_defs),
        collect=collect,
        feeds="{" + ", ".join(f"{k!r}: {v}" for k, v in feeds.items()) + "}",
    )


def generate_monitor_source(
    formula: Union[str, Formula], max_recorded_violations: int = 100
) -> str:
    """Source text of the monitor factory for ``formula``.

    The source defines ``_make_monitor() -> (feeds, collect)``:
    ``feeds`` maps each event name the formula reads to its
    ``feed(row)`` closure.  It expects ``_INF``/``_NINF`` and ``deque``
    in its globals, and, for distribution formulas, ``_EDGES`` plus
    ``bisect_left``/``bisect_right``.  Raises
    :class:`~repro.errors.LocError` when no reference is indexed by
    ``i``, and :class:`~repro.errors.LocSemanticError` for an unknown
    annotation (see the module docstring).
    """
    parsed = parse_formula(formula) if isinstance(formula, str) else formula
    tables = _formula_tables(parsed)
    if not any(rel for rel, _ in tables.values()):
        raise LocError(
            f"formula {parsed.unparse()!r} reads no event at an index "
            "relative to i: with absolute pins only its instances never "
            "end, with constants only it has none"
        )
    if any(pin < 0 for _, pins in tables.values() for pin in pins):
        # The parser cannot produce one; an AST-built formula can.
        raise LocError(f"formula {parsed.unparse()!r} pins a negative instance")
    names = list(tables)
    ring = len(names) == 1 and not tables[names[0]][1]

    def var(ref: AnnotationRef) -> str:
        if ring:
            return _ring_var(ref.index.offset)
        n = names.index(ref.event)
        if ref.index.absolute:
            return f"e{n}_at{ref.index.offset}"
        return f"e{n}_{_ring_var(ref.index.offset)}"

    if isinstance(parsed, CheckerFormula):
        kind = _CHECKER
        fields = dict(
            lhs=_render(parsed.lhs, var),
            rhs=_render(parsed.rhs, var),
            op=parsed.op,
            max_recorded=max_recorded_violations,
        )
    elif isinstance(parsed, DistributionFormula):
        kind = _DISTRIBUTION
        fields = dict(
            expr=_render(parsed.expr, var),
            bins=len(build_edges(parsed.low, parsed.high, parsed.step)) + 1,
            bisect="bisect_right" if parsed.mode == "above" else "bisect_left",
        )
    else:  # pragma: no cover - parse_formula only returns the two kinds
        raise TypeError(f"unsupported formula type {type(parsed).__name__}")
    if ring:
        return _ring_source(names[0], tables[names[0]][0], kind, fields)
    return _series_source(tables, kind, fields)


def compile_monitor_feed(
    formula: Union[str, Formula], max_recorded_violations: int = 100
) -> Tuple[Dict[str, Callable], Callable]:
    """Compile ``formula`` into live ``(feeds, collect)`` closures.

    ``feeds[name](row)`` consumes one annotation row of event ``name``;
    ``collect()`` snapshots the accumulated state:

    * checker formulas → ``(checked, violations_total, undefined,
      lhs_sum, lhs_min, lhs_max, violations)``;
    * distribution formulas → ``(total, undefined, value_sum,
      value_min, value_max, counts)``.

    The shapes match :class:`~repro.loc.checker.CheckResult` /
    :class:`~repro.loc.analyzer.DistributionResult` fields exactly;
    :mod:`repro.loc.monitor` does the wrapping.
    """
    parsed = parse_formula(formula) if isinstance(formula, str) else formula
    source = generate_monitor_source(
        parsed, max_recorded_violations=max_recorded_violations
    )
    namespace: Dict = {
        "_INF": float("inf"),
        "_NINF": float("-inf"),
        "deque": deque,
        "bisect_left": bisect_left,
        "bisect_right": bisect_right,
    }
    if isinstance(parsed, DistributionFormula):
        namespace["_EDGES"] = build_edges(parsed.low, parsed.high, parsed.step)
    exec(  # noqa: S102 - the source is generated above, not user input
        _monitor_code(source, f"<loc-monitor {parsed.unparse()}>"), namespace
    )
    return namespace["_make_monitor"]()


@lru_cache(maxsize=MONITOR_CODE_MAX)
def _monitor_code(source: str, filename: str) -> CodeType:
    """``source`` compiled once per process.

    A code object is immutable and each monitor execs it into its own
    namespace, so monitors sharing it share no state.
    """
    return compile(source, filename, "exec")


# ----------------------------------------------------------------------
# Stand-alone analyzers: the monitor source plus a trace-file main
# ----------------------------------------------------------------------

_SCRIPT = '''\
#!/usr/bin/env python3
"""Auto-generated LOC analyzer.  Do not edit.

Formula:
    {formula_text}

Generated by repro.loc.codegen; self-contained (standard library only).
Usage:  python {module_name}.py TRACE_FILE
"""

import sys
from bisect import bisect_left, bisect_right
from collections import deque

FORMULA = {formula_text!r}
_INF = float("inf")
_NINF = float("-inf")
{constants}


{monitor}

def analyze_lines(lines):
    """Evaluate the formula over text-trace lines; return the result dict."""
    feeds, collect = _make_monitor()
    for line in lines:
        text = line.strip()
        if not text or text.startswith("#") or text.startswith("cycle"):
            continue
        parts = text.split()
        if len(parts) < 6:
            raise ValueError("malformed trace line: %r" % line)
        feed = feeds.get("_".join(parts[5:]))
        if feed is not None:
            feed(tuple(float(part) for part in parts[:5]))
    return _result(*collect())


def main(argv):
    if len(argv) != 2:
        sys.stderr.write("usage: %s TRACE_FILE\\n" % argv[0])
        return 2
    with open(argv[1], "r") as handle:
        result = analyze_lines(handle)
    sys.stdout.write(_render_report(result))
    sys.stdout.write("\\n")
    return 0


{kind_functions}

if __name__ == "__main__":
    sys.exit(main(sys.argv))
'''

_DIST_SCRIPT_FUNCTIONS = '''\
def _result(total, undefined, value_sum, value_min, value_max, counts):
    curve = []
    if total:
        if MODE == "above":
            for k, edge in enumerate(_EDGES):
                # fraction of values >= edge = bins k+1..end
                curve.append((edge, sum(counts[k + 1:]) / float(total)))
        else:
            running = 0
            for k, edge in enumerate(_EDGES):
                running += counts[k]
                curve.append((edge, running / float(total)))
    return {"counts": counts, "total": total, "undefined": undefined,
            "sum": value_sum, "min": value_min if total else None,
            "max": value_max if total else None, "mode": MODE,
            "edges": list(_EDGES), "curve": curve}


def _render_report(result):
    lines = ["LOC distribution: %s" % FORMULA,
             "  mode      : %s" % result["mode"],
             "  instances : %d (+%d undefined)" % (result["total"],
                                                   result["undefined"])]
    if result["total"]:
        lines.append("  value range [%g, %g], mean %g"
                     % (result["min"], result["max"],
                        result["sum"] / result["total"]))
        for edge, fraction in result["curve"]:
            lines.append("    %18g : %6.2f%%" % (edge, fraction * 100.0))
    return "\\n".join(lines)
'''

_CHECKER_SCRIPT_FUNCTIONS = '''\
def _result(checked, violations_total, undefined, lhs_sum, lhs_min,
            lhs_max, violations):
    return {"checked": checked, "violations": violations,
            "violations_total": violations_total, "undefined": undefined,
            "passed": violations_total == 0}


def _render_report(result):
    lines = ["LOC check: %s" % FORMULA,
             "  instances checked : %d" % result["checked"],
             "  violations        : %d" % result["violations_total"]]
    for i, lhs, rhs in result["violations"]:
        lines.append("  instance %d: %g %s %g is false" % (i, lhs, OP, rhs))
    lines.append("  RESULT: %s" % ("PASS" if result["passed"] else "FAIL"))
    return "\\n".join(lines)
'''


def generate_analyzer_source(
    formula: Union[str, Formula], module_name: str = "loc_analyzer"
) -> str:
    """Generate standalone Python analyzer source for ``formula``.

    The script runs :func:`generate_monitor_source`'s code over a
    text-format trace: a distribution analyzer for distribution
    formulas, a violation checker for checker formulas.
    """
    parsed = parse_formula(formula) if isinstance(formula, str) else formula
    monitor = generate_monitor_source(parsed)
    if isinstance(parsed, DistributionFormula):
        edges = [repr(e) for e in build_edges(parsed.low, parsed.high, parsed.step)]
        rows = (", ".join(edges[k:k + 6]) for k in range(0, len(edges), 6))
        constants = (
            f"MODE = {parsed.mode!r}\n_EDGES = [\n"
            + "".join(f"    {row},\n" for row in rows)
            + "]"
        )
        kind_functions = _DIST_SCRIPT_FUNCTIONS
    else:
        constants = f"OP = {parsed.op!r}"
        kind_functions = _CHECKER_SCRIPT_FUNCTIONS
    return _SCRIPT.format(
        formula_text=parsed.unparse(),
        module_name=module_name,
        constants=constants,
        monitor=monitor,
        kind_functions=kind_functions,
    )


def write_analyzer(formula: Union[str, Formula], path: str) -> str:
    """Generate an analyzer and write it to ``path``; returns the source."""
    module_name = path.rsplit("/", 1)[-1].removesuffix(".py")
    source = generate_analyzer_source(formula, module_name=module_name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)
    return source
