"""AST node classes for parsed LOC formulas.

The AST is deliberately tiny and immutable: a node's slots are set
once, in ``__init__``, because :func:`~repro.loc.parser.parse_formula`
hands one parsed tree to every caller of the same text.

Node taxonomy::

    Formula
      CheckerFormula(lhs, op, rhs)            cycle(deq[i]) - cycle(enq[i]) <= 50
      DistributionFormula(expr, mode, triple) power_expr below <0.5, 2.25, 0.01>

    Expr
      Number(value)
      AnnotationRef(annotation, event, index)
      BinaryOp(op, left, right)               op in + - * /
      Negate(operand)

    IndexExpr(offset, absolute)               i+100, i, or a constant 3
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Tuple

#: Relational operators allowed in checker formulas.
CHECKER_OPS = ("<=", "<", ">=", ">", "==", "!=")

#: Distribution modes and their report semantics.
DIST_MODES = ("in", "below", "above")


class _Node:
    """A node whose slots are set once, in ``__init__`` (via :meth:`_set`)."""

    __slots__ = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")


class IndexExpr(_Node):
    """Index expression inside ``event[...]``: ``i``, ``i±k`` or constant.

    Attributes
    ----------
    offset:
        The constant ``k`` (0 for plain ``i``), or the absolute instance
        number when :attr:`absolute` is true.
    absolute:
        True when the index does not mention ``i`` at all.
    """

    __slots__ = ("offset", "absolute")

    def __init__(self, offset: int, absolute: bool = False):
        self._set(offset=int(offset), absolute=bool(absolute))

    def resolve(self, i: int) -> int:
        """Instance number referenced for formula instance ``i``."""
        return self.offset if self.absolute else i + self.offset

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexExpr):
            return NotImplemented
        return (self.offset, self.absolute) == (other.offset, other.absolute)

    def __hash__(self) -> int:
        return hash((self.offset, self.absolute))

    def unparse(self) -> str:
        """Render back to formula syntax."""
        if self.absolute:
            return str(self.offset)
        if self.offset == 0:
            return "i"
        sign = "+" if self.offset > 0 else "-"
        return f"i{sign}{abs(self.offset)}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"IndexExpr({self.unparse()!r})"


class Expr(_Node):
    """Base class for expression nodes."""

    __slots__ = ()

    def refs(self) -> Iterator["AnnotationRef"]:
        """Yield every :class:`AnnotationRef` in the subtree."""
        raise NotImplementedError

    def unparse(self) -> str:
        """Render back to formula syntax."""
        raise NotImplementedError


class Number(Expr):
    """A numeric literal."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self._set(value=float(value))

    def refs(self) -> Iterator["AnnotationRef"]:
        return iter(())

    def unparse(self) -> str:
        if self.value == int(self.value) and abs(self.value) < 1e15:
            return str(int(self.value))
        return repr(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Number({self.value})"


class AnnotationRef(Expr):
    """``annotation(event[index])`` — e.g. ``energy(forward[i+100])``."""

    __slots__ = ("annotation", "event", "index")

    def __init__(self, annotation: str, event: str, index: IndexExpr):
        self._set(annotation=annotation, event=event, index=index)

    def refs(self) -> Iterator["AnnotationRef"]:
        yield self

    def unparse(self) -> str:
        return f"{self.annotation}({self.event}[{self.index.unparse()}])"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AnnotationRef({self.unparse()!r})"


class BinaryOp(Expr):
    """Arithmetic node: ``left op right`` with ``op`` in ``+ - * /``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in ("+", "-", "*", "/"):
            raise ValueError(f"bad arithmetic operator {op!r}")
        self._set(op=op, left=left, right=right)

    def refs(self) -> Iterator[AnnotationRef]:
        yield from self.left.refs()
        yield from self.right.refs()

    def unparse(self) -> str:
        return f"({self.left.unparse()} {self.op} {self.right.unparse()})"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BinaryOp({self.op!r}, {self.left!r}, {self.right!r})"


class Negate(Expr):
    """Unary minus."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self._set(operand=operand)

    def refs(self) -> Iterator[AnnotationRef]:
        yield from self.operand.refs()

    def unparse(self) -> str:
        return f"(-{self.operand.unparse()})"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Negate({self.operand!r})"


class Formula(_Node):
    """Base class for complete formulas."""

    __slots__ = ()

    def exprs(self) -> List[Expr]:
        """Top-level expressions of the formula."""
        raise NotImplementedError

    def refs(self) -> List[AnnotationRef]:
        """All annotation references across the formula."""
        out: List[AnnotationRef] = []
        for expr in self.exprs():
            out.extend(expr.refs())
        return out

    def events(self) -> FrozenSet[str]:
        """Names of all events the formula references."""
        return frozenset(ref.event for ref in self.refs())

    def max_relative_offset(self) -> int:
        """Largest ``i+k`` offset; the streaming lookahead requirement."""
        offsets = [ref.index.offset for ref in self.refs() if not ref.index.absolute]
        return max(offsets, default=0)

    def min_relative_offset(self) -> int:
        """Smallest (possibly negative) ``i+k`` offset."""
        offsets = [ref.index.offset for ref in self.refs() if not ref.index.absolute]
        return min(offsets, default=0)

    def unparse(self) -> str:
        """Render back to formula syntax."""
        raise NotImplementedError


class CheckerFormula(Formula):
    """A boolean assertion to hold for all instances ``i``."""

    __slots__ = ("lhs", "op", "rhs")

    def __init__(self, lhs: Expr, op: str, rhs: Expr):
        if op not in CHECKER_OPS:
            raise ValueError(f"bad checker operator {op!r}")
        self._set(lhs=lhs, op=op, rhs=rhs)

    def exprs(self) -> List[Expr]:
        return [self.lhs, self.rhs]

    def unparse(self) -> str:
        return f"{self.lhs.unparse()} {self.op} {self.rhs.unparse()}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CheckerFormula({self.unparse()!r})"


class DistributionFormula(Formula):
    """A quantity to be binned over ``<min, max, step>`` ranges."""

    __slots__ = ("expr", "mode", "low", "high", "step")

    def __init__(self, expr: Expr, mode: str, low: float, high: float, step: float):
        if mode not in DIST_MODES:
            raise ValueError(f"bad distribution mode {mode!r}")
        self._set(
            expr=expr, mode=mode, low=float(low), high=float(high), step=float(step)
        )

    def exprs(self) -> List[Expr]:
        return [self.expr]

    @property
    def triple(self) -> Tuple[float, float, float]:
        """The ``(min, max, step)`` analysis period."""
        return (self.low, self.high, self.step)

    def unparse(self) -> str:
        return (
            f"{self.expr.unparse()} {self.mode} "
            f"<{self.low:g}, {self.high:g}, {self.step:g}>"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DistributionFormula({self.unparse()!r})"
