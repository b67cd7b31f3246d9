"""The differential oracle for the LOC engine: an interpretive evaluator.

``repro.loc`` checks every formula with generated code
(:mod:`repro.loc.codegen`).  This module keeps an independent
implementation of the same semantics, written the slow and obvious way
— one sliding window per event, an AST walk per instance — so the
tests can compare the two field by field.  It is the interpreter that
``repro.loc.evaluator.StreamingEvaluator`` used to ship, with reference
copies of the accumulation its ``Checker`` and ``DistributionAnalyzer``
sinks did; nothing in ``src/`` imports it.

LOC semantics: a formula holds for every value of the index variable
``i`` = 0, 1, 2, ...; instance ``i`` of the formula mentions annotation
values of specific *instances* of each referenced event (the ``i+k``-th
occurrence of that event in the trace).  The evaluator consumes events one
at a time and yields ``(i, values)`` as soon as every reference of
instance ``i`` is available, holding only a sliding window of each event
series in memory.

Instances that reference negative event indices (possible when a formula
uses ``i-k``) are skipped, matching the convention that such instances are
vacuous.  Instances whose evaluation divides by zero are reported as
*undefined* and counted separately.  The oracle assumes what the engine
enforces: at least one reference is indexed by ``i``.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Tuple, Union

from repro.loc.analyzer import DistributionResult, build_edges
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
from repro.loc.checker import CheckResult, Violation
from repro.loc.parser import parse_formula
from repro.trace.events import TraceEvent

#: Sentinel yielded for instances whose expression divides by zero.
UNDEFINED = float("nan")

_OPS = {
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
    "==": operator.eq,
    "!=": operator.ne,
}


class _EventSeries:
    """Sliding window of annotation tuples for one event name."""

    __slots__ = ("annotations", "base", "values", "count", "pinned")

    def __init__(self, annotations: Tuple[str, ...]):
        self.annotations = annotations
        self.base = 0  # instance number of values[0]
        self.values: Deque[Tuple[float, ...]] = deque()
        self.count = 0  # total instances seen
        self.pinned: Dict[int, Tuple[float, ...]] = {}  # absolute refs

    def append(self, event: TraceEvent, pin_indices: frozenset) -> None:
        row = tuple(event.annotation(name) for name in self.annotations)
        if self.count in pin_indices:
            self.pinned[self.count] = row
        self.values.append(row)
        self.count += 1

    def get(self, instance: int, slot: int) -> float:
        pinned = self.pinned.get(instance)
        if pinned is not None:
            return pinned[slot]
        offset = instance - self.base
        if offset < 0:
            raise AssertionError(
                f"instance {instance} already evicted (window base {self.base})"
            )
        return self.values[offset][slot]

    def evict_below(self, instance: int) -> None:
        """Drop window entries for instances below ``instance``."""
        while self.base < instance and self.values:
            self.values.popleft()
            self.base += 1


class OracleEvaluator:
    """Evaluates all instances of a formula as trace events stream in.

    Call :meth:`feed` with each event (in trace order); it returns an
    iterator of newly completed ``(i, values)`` pairs: ``(lhs, rhs)`` for
    checker formulas, a 1-tuple for distribution formulas.
    """

    def __init__(self, formula: Formula):
        self.formula = formula
        self.exprs: List[Expr] = formula.exprs()
        self.next_instance = 0
        self.instances_evaluated = 0
        self.undefined_instances = 0

        refs = formula.refs()
        # One series per referenced event, tracking exactly the
        # annotations the formula needs (in first-seen order).
        self._series: Dict[str, _EventSeries] = {}
        needed: Dict[str, List[str]] = {}
        pins: Dict[str, set] = {}
        for ref in refs:
            annotation_list = needed.setdefault(ref.event, [])
            if ref.annotation not in annotation_list:
                annotation_list.append(ref.annotation)
            if ref.index.absolute:
                pins.setdefault(ref.event, set()).add(ref.index.offset)
        for event_name, annotation_list in needed.items():
            self._series[event_name] = _EventSeries(tuple(annotation_list))
        self._pins = {name: frozenset(pins.get(name, ())) for name in needed}

        # Per-event relative-offset envelope, for readiness + eviction.
        self._rel_offsets: Dict[str, List[int]] = {}
        for ref in refs:
            if not ref.index.absolute:
                self._rel_offsets.setdefault(ref.event, []).append(ref.index.offset)
        self._slot_of: Dict[Tuple[str, str], int] = {
            (name, annotation): series.annotations.index(annotation)
            for name, series in self._series.items()
            for annotation in series.annotations
        }

    def feed(self, event: TraceEvent) -> Iterator[Tuple[int, Tuple[float, ...]]]:
        """Consume one event; yield instances that became evaluable."""
        series = self._series.get(event.name)
        if series is None:
            return iter(())
        series.append(event, self._pins[event.name])
        return self._drain()

    def _drain(self) -> Iterator[Tuple[int, Tuple[float, ...]]]:
        while self._ready(self.next_instance):
            i = self.next_instance
            self.next_instance += 1
            if self._vacuous(i):
                continue
            values = self._evaluate(i)
            self.instances_evaluated += 1
            self._evict(i + 1)
            yield i, values

    def _ready(self, i: int) -> bool:
        for name, offsets in self._rel_offsets.items():
            if i + max(offsets) >= self._series[name].count:
                return False
        for name, pins in self._pins.items():
            for pin in pins:
                if pin >= self._series[name].count:
                    return False
        return True

    def _vacuous(self, i: int) -> bool:
        for offsets in self._rel_offsets.values():
            if i + min(offsets) < 0:
                return True
        return False

    def _evict(self, next_i: int) -> None:
        for name, offsets in self._rel_offsets.items():
            self._series[name].evict_below(next_i + min(offsets))

    def _evaluate(self, i: int) -> Tuple[float, ...]:
        values = []
        for expr in self.exprs:
            try:
                values.append(self._eval_expr(expr, i))
            except ZeroDivisionError:
                self.undefined_instances += 1
                values.append(UNDEFINED)
        return tuple(values)

    def _eval_expr(self, expr: Expr, i: int) -> float:
        if isinstance(expr, Number):
            return expr.value
        if isinstance(expr, AnnotationRef):
            series = self._series[expr.event]
            slot = self._slot_of[(expr.event, expr.annotation)]
            return series.get(expr.index.resolve(i), slot)
        if isinstance(expr, BinaryOp):
            left = self._eval_expr(expr.left, i)
            right = self._eval_expr(expr.right, i)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            return left / right  # ZeroDivisionError handled by caller
        if isinstance(expr, Negate):
            return -self._eval_expr(expr.operand, i)
        raise AssertionError(f"unknown expression node {type(expr).__name__}")


def _parsed(formula: Union[str, Formula]) -> Formula:
    return parse_formula(formula) if isinstance(formula, str) else formula


def evaluate_over(
    formula: Union[str, Formula], events: Iterable[TraceEvent]
) -> List[Tuple[int, Tuple[float, ...]]]:
    """Every evaluated instance of ``formula`` over ``events``, in order."""
    evaluator = OracleEvaluator(_parsed(formula))
    out: List[Tuple[int, Tuple[float, ...]]] = []
    for event in events:
        out.extend(evaluator.feed(event))
    return out


def oracle_check_trace(
    formula: Union[str, CheckerFormula],
    events: Iterable[TraceEvent],
    max_recorded_violations: int = 100,
) -> CheckResult:
    """What :func:`repro.loc.checker.check_trace` must return."""
    parsed = _parsed(formula)
    assert isinstance(parsed, CheckerFormula), parsed
    compare = _OPS[parsed.op]
    result = CheckResult(formula_text=parsed.unparse(), op=parsed.op)
    for instance, (lhs, rhs) in evaluate_over(parsed, events):
        if math.isnan(lhs) or math.isnan(rhs):
            result.undefined_instances += 1
            continue
        result.instances_checked += 1
        result.lhs_sum += lhs
        if lhs < result.lhs_min:
            result.lhs_min = lhs
        if lhs > result.lhs_max:
            result.lhs_max = lhs
        if not compare(lhs, rhs):
            result.violations_total += 1
            if len(result.violations) < max_recorded_violations:
                result.violations.append(Violation(instance, lhs, rhs))
    return result


def oracle_analyze_trace(
    formula: Union[str, DistributionFormula], events: Iterable[TraceEvent]
) -> DistributionResult:
    """What :func:`repro.loc.analyzer.analyze_trace` must return."""
    parsed = _parsed(formula)
    assert isinstance(parsed, DistributionFormula), parsed
    edges = build_edges(parsed.low, parsed.high, parsed.step)
    bisect = bisect_right if parsed.mode == "above" else bisect_left
    counts = [0] * (len(edges) + 1)
    total = 0
    low, high, value_sum = math.inf, -math.inf, 0.0
    evaluator = OracleEvaluator(parsed)
    for event in events:
        for _instance, (value,) in evaluator.feed(event):
            if math.isnan(value):
                continue  # counted via the evaluator's undefined counter
            counts[bisect(edges, value)] += 1
            total += 1
            value_sum += value
            if value < low:
                low = value
            if value > high:
                high = value
    return DistributionResult(
        formula_text=parsed.unparse(),
        mode=parsed.mode,
        edges=edges,
        counts=counts,
        total=total,
        undefined=evaluator.undefined_instances,
        value_min=low if total else math.nan,
        value_max=high if total else math.nan,
        value_sum=value_sum,
    )
