"""Analyzer and online-monitor generation from LOC formulas.

The paper's methodology generates *stand-alone checkers, independent of
any simulation language and platform* from each LOC formula.  This module
does the same for Python, in two flavours:

**Offline analyzers** — :func:`generate_analyzer_source` returns the
complete source text of a self-contained script (no imports from
``repro``) that

* parses a text-format trace file,
* evaluates every instance of the formula with a sliding window,
* bins values / records violations per the formula's operator,
* prints the distribution or violation report.

The generated script is also importable as a module exposing
``analyze_lines(iterable_of_lines)``, which the test-suite uses to verify
that generated analyzers agree exactly with the in-process evaluator.

**Online monitors** — :func:`compile_monitor_feed` compiles a formula
into a closure-based simulation-time monitor for the paper's *fast
simulation checking* path.  The generated ``feed(row)`` closure
subscribes directly to a :class:`~repro.trace.bus.TraceBus` event name,
keeps the formula's index-offset window in a ring buffer, and evaluates
each instance with the expression tree flattened into straight-line
arithmetic — no event objects, no AST walk, no generator machinery.
:mod:`repro.loc.monitor` wraps these closures in the monitor API and
falls back to the interpretive :class:`~repro.loc.evaluator.StreamingEvaluator`
for formulas the compiler does not specialize (multi-event windows,
absolute instance pins).
"""

from __future__ import annotations

from functools import lru_cache
from types import CodeType
from typing import Callable, Dict, List, Tuple, Union

from repro.errors import LocError
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


def _render_expr(expr: Expr) -> str:
    """Render an expression AST as Python source over ``get(event, idx, slot)``."""
    if isinstance(expr, Number):
        return repr(expr.value)
    if isinstance(expr, AnnotationRef):
        slot = _COLUMNS.index(expr.annotation)
        if expr.index.absolute:
            idx = str(expr.index.offset)
        elif expr.index.offset == 0:
            idx = "i"
        else:
            sign = "+" if expr.index.offset > 0 else "-"
            idx = f"i {sign} {abs(expr.index.offset)}"
        return f"get({expr.event!r}, {idx}, {slot})"
    if isinstance(expr, BinaryOp):
        return f"({_render_expr(expr.left)} {expr.op} {_render_expr(expr.right)})"
    if isinstance(expr, Negate):
        return f"(-{_render_expr(expr.operand)})"
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _formula_tables(formula: Formula) -> Tuple[Dict[str, List[int]], Dict[str, List[int]]]:
    """Relative-offset and absolute-pin tables keyed by event name."""
    rel: Dict[str, List[int]] = {}
    pins: Dict[str, List[int]] = {}
    for ref in formula.refs():
        if ref.index.absolute:
            pins.setdefault(ref.event, [])
            if ref.index.offset not in pins[ref.event]:
                pins[ref.event].append(ref.index.offset)
            rel.setdefault(ref.event, [])
        else:
            rel.setdefault(ref.event, []).append(ref.index.offset)
            pins.setdefault(ref.event, [])
    return rel, pins


_TEMPLATE = '''\
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
MODE = {mode!r}
EVENTS = {events!r}           # event name -> True (events the formula reads)
REL_OFFSETS = {rel_offsets!r}  # event name -> list of relative i-offsets
PINS = {pins!r}               # event name -> absolute instance numbers


def _parse_line(line):
    text = line.strip()
    if not text or text.startswith("#") or text.startswith("cycle"):
        return None
    parts = text.split()
    if len(parts) < 6:
        raise ValueError("malformed trace line: %r" % line)
    name = "_".join(parts[5:])
    if name not in EVENTS:
        return None
    return name, (float(parts[0]), float(parts[1]), float(parts[2]),
                  float(parts[3]), float(parts[4]))


class _Series(object):
    def __init__(self):
        self.base = 0
        self.values = deque()
        self.count = 0
        self.pinned = {{}}


{expr_functions}

def analyze_lines(lines):
    """Evaluate the formula over trace lines; return the result dict."""
    series = dict((name, _Series()) for name in EVENTS)
    next_i = [0]
    state = _new_state()

    def get(event, idx, slot):
        s = series[event]
        if idx in s.pinned:
            return s.pinned[idx][slot]
        return s.values[idx - s.base][slot]

    def ready(i):
        for name, offsets in REL_OFFSETS.items():
            if offsets and i + max(offsets) >= series[name].count:
                return False
        for name, pin_list in PINS.items():
            for pin in pin_list:
                if pin >= series[name].count:
                    return False
        return True

    def vacuous(i):
        for offsets in REL_OFFSETS.values():
            if offsets and i + min(offsets) < 0:
                return True
        return False

    def evict(i):
        for name, offsets in REL_OFFSETS.items():
            if not offsets:
                continue
            keep_from = i + min(offsets)
            s = series[name]
            while s.base < keep_from and s.values:
                s.values.popleft()
                s.base += 1

    for line in lines:
        parsed = _parse_line(line)
        if parsed is None:
            continue
        name, row = parsed
        s = series[name]
        if s.count in PINS.get(name, ()):
            s.pinned[s.count] = row
        s.values.append(row)
        s.count += 1
        while ready(next_i[0]):
            i = next_i[0]
            next_i[0] += 1
            if vacuous(i):
                continue
            _observe(state, get, i)
            evict(i + 1)
    return _finish(state)


def main(argv):
    if len(argv) != 2:
        sys.stderr.write("usage: %s TRACE_FILE\\n" % argv[0])
        return 2
    with open(argv[1], "r") as handle:
        result = analyze_lines(handle)
    sys.stdout.write(_render_report(result))
    sys.stdout.write("\\n")
    return 0


{mode_functions}

if __name__ == "__main__":
    sys.exit(main(sys.argv))
'''

_DIST_MODE_FUNCTIONS = '''\
LOW = {low!r}
HIGH = {high!r}
STEP = {step!r}


def _build_edges():
    count = int(round((HIGH - LOW) / STEP))
    edges = [LOW + k * STEP for k in range(count)]
    edges.append(HIGH)
    return edges

EDGES = _build_edges()


def _new_state():
    return {{"counts": [0] * (len(EDGES) + 1), "total": 0, "undefined": 0,
             "sum": 0.0, "min": None, "max": None}}


def _observe(state, get, i):
    try:
        value = _expr(get, i)
    except ZeroDivisionError:
        state["undefined"] += 1
        return
    if MODE == "above":
        k = bisect_right(EDGES, value)
    else:
        k = bisect_left(EDGES, value)
    state["counts"][k] += 1
    state["total"] += 1
    state["sum"] += value
    if state["min"] is None or value < state["min"]:
        state["min"] = value
    if state["max"] is None or value > state["max"]:
        state["max"] = value


def _finish(state):
    result = dict(state)
    result["mode"] = MODE
    result["edges"] = list(EDGES)
    total = state["total"]
    curve = []
    if total:
        if MODE == "above":
            for k, edge in enumerate(EDGES):
                # fraction of values >= edge = bins k+1..end
                curve.append((edge, sum(state["counts"][k + 1:]) / float(total)))
        else:
            running = 0
            for k, edge in enumerate(EDGES):
                running += state["counts"][k]
                curve.append((edge, running / float(total)))
    result["curve"] = curve
    return result


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

_CHECKER_MODE_FUNCTIONS = '''\
OP = {op!r}
MAX_RECORDED = 100


def _new_state():
    return {{"checked": 0, "violations": [], "violations_total": 0,
             "undefined": 0}}


def _compare(lhs, rhs):
    if OP == "<=":
        return lhs <= rhs
    if OP == "<":
        return lhs < rhs
    if OP == ">=":
        return lhs >= rhs
    if OP == ">":
        return lhs > rhs
    if OP == "==":
        return lhs == rhs
    return lhs != rhs


def _observe(state, get, i):
    try:
        lhs = _lhs(get, i)
        rhs = _rhs(get, i)
    except ZeroDivisionError:
        state["undefined"] += 1
        return
    state["checked"] += 1
    if not _compare(lhs, rhs):
        state["violations_total"] += 1
        if len(state["violations"]) < MAX_RECORDED:
            state["violations"].append((i, lhs, rhs))


def _finish(state):
    result = dict(state)
    result["passed"] = state["violations_total"] == 0
    return result


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

    Works for both distribution formulas (emits a distribution analyzer)
    and checker formulas (emits a violation checker).
    """
    if isinstance(formula, str):
        parsed = parse_formula(formula)
    else:
        parsed = formula
    rel, pins = _formula_tables(parsed)
    events = {name: True for name in sorted(parsed.events())}

    if isinstance(parsed, DistributionFormula):
        expr_functions = (
            "def _expr(get, i):\n    return " + _render_expr(parsed.expr) + "\n"
        )
        mode_functions = _DIST_MODE_FUNCTIONS.format(
            low=parsed.low, high=parsed.high, step=parsed.step
        )
        mode = parsed.mode
    elif isinstance(parsed, CheckerFormula):
        expr_functions = (
            "def _lhs(get, i):\n    return "
            + _render_expr(parsed.lhs)
            + "\n\n\ndef _rhs(get, i):\n    return "
            + _render_expr(parsed.rhs)
            + "\n"
        )
        mode_functions = _CHECKER_MODE_FUNCTIONS.format(op=parsed.op)
        mode = "checker"
    else:  # pragma: no cover - parse_formula only returns the two kinds
        raise TypeError(f"unsupported formula type {type(parsed).__name__}")

    return _TEMPLATE.format(
        formula_text=parsed.unparse(),
        module_name=module_name,
        mode=mode,
        events=events,
        rel_offsets={name: sorted(set(offsets)) for name, offsets in rel.items()},
        pins={name: sorted(pin_list) for name, pin_list in pins.items()},
        expr_functions=expr_functions,
        mode_functions=mode_functions,
    )


def write_analyzer(formula: Union[str, Formula], path: str) -> str:
    """Generate an analyzer and write it to ``path``; returns the source."""
    module_name = path.rsplit("/", 1)[-1].removesuffix(".py")
    source = generate_analyzer_source(formula, module_name=module_name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)
    return source


# ----------------------------------------------------------------------
# Online monitors: compiled simulation-time checking
# ----------------------------------------------------------------------

def monitor_event(formula: Formula) -> Union[str, None]:
    """The single event name a compiled online monitor would watch.

    Returns ``None`` when the formula is outside the compiler's
    specialization: no references at all, references to more than one
    event, or absolute instance pins (``event[3]``) — those fall back
    to the interpretive evaluator.
    """
    refs = formula.refs()
    events = {ref.event for ref in refs}
    if len(events) != 1:
        return None
    if any(ref.index.absolute for ref in refs):
        return None
    return next(iter(events))


def _ring_var(offset: int) -> str:
    """Closure variable name for the row at relative offset ``offset``."""
    if offset == 0:
        return "r0"
    if offset > 0:
        return f"rp{offset}"
    return f"rn{-offset}"


def _render_ring_expr(expr: Expr) -> str:
    """Render an expression over hoisted ring-buffer row variables."""
    if isinstance(expr, Number):
        return repr(expr.value)
    if isinstance(expr, AnnotationRef):
        slot = _COLUMNS.index(expr.annotation)
        return f"{_ring_var(expr.index.offset)}[{slot}]"
    if isinstance(expr, BinaryOp):
        return (
            f"({_render_ring_expr(expr.left)} {expr.op} "
            f"{_render_ring_expr(expr.right)})"
        )
    if isinstance(expr, Negate):
        return f"(-{_render_ring_expr(expr.operand)})"
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _ring_prelude(formula: Formula) -> Tuple[int, int, int, List[int]]:
    """Window geometry: (ring size, ready lag, first instance, offsets)."""
    offsets = sorted({ref.index.offset for ref in formula.refs()})
    min_off, max_off = offsets[0], offsets[-1]
    window = max_off - min_off + 1
    # Instance i is ready once i + max_off < count  ⇔  i <= count - ready_lag.
    ready_lag = max_off + 1
    # Instances with i + min_off < 0 are vacuous and skipped.
    first_instance = max(0, -min_off)
    return window, ready_lag, first_instance, offsets


_MONITOR_HEAD = '''\
def _make_monitor():
    buf = [None] * {window}
    count = 0
    next_i = 0
'''

# Shared per-feed drive loop: append the row, then evaluate every newly
# ready, non-vacuous instance.  With a non-negative lookahead at most
# one instance becomes ready per feed; negative-offset-only formulas
# unlock a short initial burst, which the while loop drains.
_MONITOR_DRIVE = '''\
        buf[count % {window}] = row
        count += 1
        limit = count - {ready_lag}
        while next_i <= limit:
            i = next_i
            next_i += 1
            if i < {first_instance}:
                continue
{fetches}
'''

_CHECKER_MONITOR = (
    _MONITOR_HEAD
    + '''\
    checked = 0
    violations_total = 0
    undefined = 0
    lhs_sum = 0.0
    lhs_min = _INF
    lhs_max = _NINF
    violations = []

    def feed(row):
        nonlocal count, next_i, checked, violations_total, undefined
        nonlocal lhs_sum, lhs_min, lhs_max
'''
    + _MONITOR_DRIVE
    + '''\
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

    def collect():
        return (checked, violations_total, undefined,
                lhs_sum, lhs_min, lhs_max, list(violations))

    return feed, collect
'''
)

_DIST_MONITOR = (
    _MONITOR_HEAD
    + '''\
    total = 0
    undefined = 0
    value_sum = 0.0
    value_min = _INF
    value_max = _NINF
    counts = [0] * {bins}

    def feed(row):
        nonlocal count, next_i, total, undefined
        nonlocal value_sum, value_min, value_max
'''
    + _MONITOR_DRIVE
    + '''\
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

    def collect():
        return (total, undefined, value_sum, value_min, value_max,
                list(counts))

    return feed, collect
'''
)


def _fetch_lines(window: int, exprs: List[Expr]) -> str:
    """Hoisted ring-row fetches for every offset the expressions use."""
    used = sorted({ref.index.offset for expr in exprs for ref in expr.refs()})
    lines = []
    for offset in used:
        if offset == 0:
            index = f"i % {window}"
        else:
            sign = "+" if offset > 0 else "-"
            index = f"(i {sign} {abs(offset)}) % {window}"
        lines.append(f"            {_ring_var(offset)} = buf[{index}]")
    return "\n".join(lines)


def generate_monitor_source(
    formula: Union[str, Formula], max_recorded_violations: int = 100
) -> str:
    """Source text of the compiled online-monitor factory for ``formula``.

    The source defines ``_make_monitor() -> (feed, collect)`` and
    expects ``_INF``/``_NINF`` (and, for distribution formulas,
    ``_EDGES`` plus ``bisect_left``/``bisect_right``) in its globals.
    Raises :class:`~repro.errors.LocError` for formulas outside the
    compiled specialization (see :func:`monitor_event`).
    """
    parsed = parse_formula(formula) if isinstance(formula, str) else formula
    if monitor_event(parsed) is None:
        raise LocError(
            f"formula {parsed.unparse()!r} is not compilable to a "
            "single-event online monitor (multi-event window or absolute "
            "instance pins) — use the interpretive evaluator"
        )
    window, ready_lag, first_instance, _ = _ring_prelude(parsed)
    common = dict(
        window=window,
        ready_lag=ready_lag,
        first_instance=first_instance,
        fetches=_fetch_lines(window, parsed.exprs()),
    )
    if isinstance(parsed, CheckerFormula):
        return _CHECKER_MONITOR.format(
            lhs=_render_ring_expr(parsed.lhs),
            rhs=_render_ring_expr(parsed.rhs),
            op=parsed.op,
            max_recorded=max_recorded_violations,
            **common,
        )
    if isinstance(parsed, DistributionFormula):
        from repro.loc.analyzer import build_edges

        return _DIST_MONITOR.format(
            expr=_render_ring_expr(parsed.expr),
            bins=len(build_edges(parsed.low, parsed.high, parsed.step)) + 1,
            bisect="bisect_right" if parsed.mode == "above" else "bisect_left",
            **common,
        )
    raise TypeError(  # pragma: no cover - parse_formula returns the two kinds
        f"unsupported formula type {type(parsed).__name__}"
    )


def compile_monitor_feed(
    formula: Union[str, Formula], max_recorded_violations: int = 100
) -> Tuple[Callable, Callable]:
    """Compile ``formula`` into live ``(feed, collect)`` closures.

    ``feed(row)`` consumes one annotation row of the formula's event
    (see :func:`monitor_event`); ``collect()`` snapshots the
    accumulated state:

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
    namespace: Dict = {"_INF": float("inf"), "_NINF": float("-inf")}
    if isinstance(parsed, DistributionFormula):
        from bisect import bisect_left, bisect_right

        from repro.loc.analyzer import build_edges

        namespace["_EDGES"] = build_edges(parsed.low, parsed.high, parsed.step)
        namespace["bisect_left"] = bisect_left
        namespace["bisect_right"] = bisect_right
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
