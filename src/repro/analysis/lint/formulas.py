"""LOC formula analyzer: bounds and event names.

Every builtin formula and every study-gate derivation is checked
statically: bounds for vacuity/unsatisfiability, and event names
against the statically generated TraceBus channel registry
(:mod:`repro.analysis.lint.channels`).  The pass only parses; it
builds no monitor.

Rules
-----
LOC202  vacuous or unsatisfiable bound
LOC203  unknown event/channel name
LOC204  formula fails to parse
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.lint.channels import ChannelRegistry
from repro.analysis.lint.core import Finding
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
from repro.loc.builtin import (
    forwarding_latency_formula,
    power_distribution_formula,
    throughput_distribution_formula,
)
from repro.loc.parser import parse_formula

#: Annotation columns; all five are cumulative (monotone non-decreasing
#: in the instance index), which powers the delta-sign analysis below.
CUMULATIVE_ANNOTATIONS = ("cycle", "time", "energy", "total_pkt", "total_bit")


# -- bound analysis ------------------------------------------------------


def _const_value(expr: Expr) -> Optional[float]:
    """The constant value of ``expr``, folding arithmetic; else ``None``."""
    if isinstance(expr, Number):
        return expr.value
    if isinstance(expr, Negate):
        value = _const_value(expr.operand)
        return None if value is None else -value
    if isinstance(expr, BinaryOp):
        left = _const_value(expr.left)
        right = _const_value(expr.right)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return left / right if right != 0 else None
    return None


def _monotone_delta(expr: Expr) -> Optional[bool]:
    """True when ``expr`` is provably ``>= 0`` for every instance.

    Recognizes ``ann(e[i+a]) - ann(e[i+b])`` with the same cumulative
    annotation and event, relative indices, and ``a >= b`` — the shape
    of every latency/pace gate.  Returns ``None`` when no verdict is
    provable (not ``False``: absence of proof is not disproof).
    """
    if not isinstance(expr, BinaryOp) or expr.op != "-":
        return None
    left, right = expr.left, expr.right
    if not (isinstance(left, AnnotationRef) and isinstance(right, AnnotationRef)):
        return None
    if left.annotation != right.annotation or left.event != right.event:
        return None
    if left.annotation not in CUMULATIVE_ANNOTATIONS:
        return None
    if left.index.absolute or right.index.absolute:
        return None
    if left.index.offset >= right.index.offset:
        return True
    return None


def analyze_bounds(
    formula: Union[str, Formula], source: str = "<formula>"
) -> List[Finding]:
    """LOC202 findings for vacuous/unsatisfiable bounds."""
    findings: List[Finding] = []
    if isinstance(formula, str):
        try:
            parsed = parse_formula(formula)
        except LocError:
            return findings  # LOC204 owns parse failures
    else:
        parsed = formula

    if isinstance(parsed, DistributionFormula):
        low, high, step = parsed.triple
        if step <= 0:
            findings.append(
                Finding(
                    code="LOC202",
                    message=(
                        f"[{source}] degenerate analysis period: step "
                        f"{step:g} <= 0 in {parsed.unparse()!r}"
                    ),
                    path=source,
                    hint="use a positive bin step",
                )
            )
        if low >= high:
            findings.append(
                Finding(
                    code="LOC202",
                    message=(
                        f"[{source}] degenerate analysis period: min "
                        f"{low:g} >= max {high:g} in {parsed.unparse()!r}"
                    ),
                    path=source,
                    hint="order the triple as <min, max, step> with min < max",
                )
            )
        return findings

    if not isinstance(parsed, CheckerFormula):
        return findings

    lhs_const = _const_value(parsed.lhs)
    rhs_const = _const_value(parsed.rhs)
    if lhs_const is not None and rhs_const is not None:
        verdict = _compare(lhs_const, parsed.op, rhs_const)
        word = "vacuous (always true)" if verdict else "unsatisfiable"
        findings.append(
            Finding(
                code="LOC202",
                message=(
                    f"[{source}] constant assertion is {word}: "
                    f"{parsed.unparse()!r}"
                ),
                path=source,
                hint="assert over annotation references, not constants",
            )
        )
        return findings

    # Monotone-delta vs constant: delta >= 0 always holds for
    # cumulative annotations with a later minuend.
    for expr, const, flipped in (
        (parsed.lhs, rhs_const, False),
        (parsed.rhs, lhs_const, True),
    ):
        if const is None or _monotone_delta(expr) is not True:
            continue
        # Normalize to ``delta OP const``.
        op = _flip(parsed.op) if flipped else parsed.op
        issue = _delta_bound_issue(op, const)
        if issue is not None:
            findings.append(
                Finding(
                    code="LOC202",
                    message=(
                        f"[{source}] {issue} bound: cumulative delta is "
                        f"always >= 0, but formula requires "
                        f"{parsed.unparse()!r}"
                    ),
                    path=source,
                    hint=(
                        "the bound can never fail/hold — check its sign "
                        "and units"
                    ),
                )
            )
    return findings


def _compare(left: float, op: str, right: float) -> bool:
    if op == "<=":
        return left <= right
    if op == "<":
        return left < right
    if op == ">=":
        return left >= right
    if op == ">":
        return left > right
    if op == "==":
        return left == right
    return left != right


def _flip(op: str) -> str:
    """The operator seen from the swapped side (``C op delta`` form)."""
    return {"<=": ">=", "<": ">", ">=": "<=", ">": "<", "==": "==", "!=": "!="}[op]


def _delta_bound_issue(op: str, const: float) -> Optional[str]:
    """Issue label for ``delta OP const`` with ``delta >= 0`` provable."""
    if op == "<=" and const < 0:
        return "unsatisfiable"
    if op == "<" and const <= 0:
        return "unsatisfiable"
    if op == ">=" and const <= 0:
        return "vacuous"
    if op == ">" and const < 0:
        return "vacuous"
    return None


def check_events(
    formula: Union[str, Formula],
    registry: ChannelRegistry,
    source: str = "<formula>",
) -> List[Finding]:
    """LOC203/LOC204: unknown event names / parse failures."""
    if isinstance(formula, str):
        try:
            parsed = parse_formula(formula)
        except LocError as exc:
            return [
                Finding(
                    code="LOC204",
                    message=f"[{source}] formula does not parse: {exc}",
                    path=source,
                    hint="fix the formula syntax",
                )
            ]
    else:
        parsed = formula
    findings: List[Finding] = []
    for event in sorted(parsed.events()):
        if not registry.knows(event):
            findings.append(
                Finding(
                    code="LOC203",
                    message=(
                        f"[{source}] unknown event {event!r} — no TraceBus "
                        "emitter publishes it"
                    ),
                    path=source,
                    hint=(
                        "known channels: " + (registry.describe() or "<none>")
                    ),
                )
            )
    return findings


# -- catalog-wide analysis ----------------------------------------------


def builtin_formulas() -> Dict[str, Formula]:
    """The paper's builtin formulas at their default parameters."""
    return {
        "builtin:forwarding_latency": forwarding_latency_formula(),
        "builtin:power_distribution": power_distribution_formula(),
        "builtin:throughput_distribution": throughput_distribution_formula(),
    }


def study_gate_formulas(mem_gates: bool = True) -> Dict[str, str]:
    """Every study-gate formula the default catalog derives.

    ``mem_gates=True`` also includes the opt-in ``mem_*`` pace gates so
    the lint sees the full gate surface.
    """
    # Imported here: repro.studies pulls in the sweep/backend stack,
    # which the pure fixture-level lint paths should not need.
    from repro.scenarios import get_scenario, list_scenarios
    from repro.studies.spec import StudySpec

    out: Dict[str, str] = {}
    for with_mem in ((False, True) if mem_gates else (False,)):
        spec = StudySpec(mem_gates=with_mem)
        for name in list_scenarios():
            scenario = get_scenario(name)
            for assertion in spec.assertions_for(scenario):
                key = f"study:{name}:{assertion.name}"
                out.setdefault(key, assertion.formula)
    return out


def catalog_formulas() -> List[Tuple[str, Union[str, Formula]]]:
    """The builtins and every study gate, ``mem_*`` gates included."""
    items: List[Tuple[str, Union[str, Formula]]] = []
    items.extend(sorted(builtin_formulas().items()))
    items.extend(sorted(study_gate_formulas().items()))
    return items


def analyze_catalog(registry: ChannelRegistry) -> List[Finding]:
    """LOC202-LOC204 findings over :func:`catalog_formulas`."""
    findings: List[Finding] = []
    for source, formula in catalog_formulas():
        findings.extend(analyze_bounds(formula, source=source))
        findings.extend(check_events(formula, registry, source=source))
    return findings
