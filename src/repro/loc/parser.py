"""Recursive-descent parser for LOC formulas.

Grammar (EOF-terminated)::

    formula   := expr tail
    tail      := dist_kw triple            # distribution formula
               | rel_op expr              # checker formula
    dist_kw   := 'in' | 'below' | 'above'
    triple    := '<' number ',' number ',' number '>'
    rel_op    := '<=' | '<' | '>=' | '>' | '==' | '!='
    expr      := term (('+'|'-') term)*
    term      := unary (('*'|'/') unary)*
    unary     := ('-'|'+') unary | primary
    primary   := number | ref | '(' expr ')'
    ref       := IDENT '(' event '[' index ']' ')'
    event     := IDENT
    index     := 'i' (('+'|'-') integer)? | integer

The parser is purely syntactic, so it can parse formulas about traces it
has never seen.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Union

from repro.errors import LocSyntaxError
from repro.loc.ast_nodes import (
    AnnotationRef,
    BinaryOp,
    CheckerFormula,
    DistributionFormula,
    Expr,
    IndexExpr,
    Negate,
    Number,
)
from repro.loc.lexer import Token, tokenize

#: Relational token kinds and their operator spellings.
_REL_TOKENS = {"LE": "<=", "GE": ">=", "EQ": "==", "NE": "!=", "LT": "<", "GT": ">"}

#: Distribution keyword token kinds and their modes.
_DIST_TOKENS = {"KW_IN": "in", "KW_BELOW": "below", "KW_ABOVE": "above"}

#: Distinct formula texts whose parse a process keeps.  A catalog study
#: reads a dozen or so (a pacing bound per scenario, the shared gates
#: and the span distributions); a text past the bound is parsed again.
PARSED_FORMULAS_MAX = 64


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers -------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise LocSyntaxError(
                f"expected {kind}, found {token.kind} ({token.text!r})",
                position=token.position,
            )
        return self.advance()

    # -- grammar -------------------------------------------------------
    def parse_formula(self) -> Union[CheckerFormula, DistributionFormula]:
        lhs = self.parse_expr()
        token = self.peek()
        if token.kind in _DIST_TOKENS:
            self.advance()
            low, high, step = self.parse_triple()
            formula: Union[CheckerFormula, DistributionFormula]
            formula = DistributionFormula(lhs, _DIST_TOKENS[token.kind], low, high, step)
        elif token.kind in _REL_TOKENS:
            self.advance()
            rhs = self.parse_expr()
            formula = CheckerFormula(lhs, _REL_TOKENS[token.kind], rhs)
        else:
            raise LocSyntaxError(
                "expected a relational operator or 'in'/'below'/'above' "
                f"after the expression, found {token.text!r}",
                position=token.position,
            )
        self.expect("EOF")
        return formula

    def parse_triple(self):
        self.expect("LT")
        low = self.parse_signed_number()
        self.expect("COMMA")
        high = self.parse_signed_number()
        self.expect("COMMA")
        step = self.parse_signed_number()
        self.expect("GT")
        if step <= 0:
            raise LocSyntaxError(f"triple step must be positive, got {step:g}")
        if high < low:
            raise LocSyntaxError(f"triple max {high:g} is below min {low:g}")
        return low, high, step

    def parse_signed_number(self) -> float:
        sign = 1.0
        while self.peek().kind in ("MINUS", "PLUS"):
            if self.advance().kind == "MINUS":
                sign = -sign
        token = self.expect("NUMBER")
        return sign * float(token.text)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = "+" if self.advance().kind == "PLUS" else "-"
            node = BinaryOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind in ("STAR", "SLASH"):
            op = "*" if self.advance().kind == "STAR" else "/"
            node = BinaryOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        token = self.peek()
        if token.kind == "MINUS":
            self.advance()
            return Negate(self.parse_unary())
        if token.kind == "PLUS":
            self.advance()
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            return Number(float(token.text))
        if token.kind == "LPAREN":
            self.advance()
            node = self.parse_expr()
            self.expect("RPAREN")
            return node
        if token.kind == "IDENT":
            return self.parse_ref()
        raise LocSyntaxError(
            f"expected a number, reference or '(', found {token.text!r}",
            position=token.position,
        )

    def parse_ref(self) -> AnnotationRef:
        annotation = self.expect("IDENT").text
        self.expect("LPAREN")
        event = self.expect("IDENT").text
        self.expect("LBRACKET")
        index = self.parse_index()
        self.expect("RBRACKET")
        self.expect("RPAREN")
        return AnnotationRef(annotation, event, index)

    def parse_index(self) -> IndexExpr:
        token = self.peek()
        if token.kind == "IDENT":
            if token.text != "i":
                raise LocSyntaxError(
                    f"only 'i' may be used as the index variable, found {token.text!r}",
                    position=token.position,
                )
            self.advance()
            nxt = self.peek()
            if nxt.kind in ("PLUS", "MINUS"):
                sign = 1 if self.advance().kind == "PLUS" else -1
                number = self.expect("NUMBER")
                offset = self._integer(number)
                return IndexExpr(sign * offset)
            return IndexExpr(0)
        if token.kind == "NUMBER":
            self.advance()
            return IndexExpr(self._integer(token), absolute=True)
        raise LocSyntaxError(
            f"expected an index expression, found {token.text!r}",
            position=token.position,
        )

    @staticmethod
    def _integer(token: Token) -> int:
        value = float(token.text)
        if value != int(value):
            raise LocSyntaxError(
                f"index offsets must be integers, got {token.text!r}",
                position=token.position,
            )
        return int(value)


@lru_cache(maxsize=PARSED_FORMULAS_MAX)
def parse_formula(text: str) -> Union[CheckerFormula, DistributionFormula]:
    """Parse LOC formula text into an AST, once per process.

    The tree is a pure function of ``text`` and immutable, so every
    caller of one text shares it: a sweep's jobs and each worker's
    monitors read the same few formulas over and over.  A malformed
    text raises every time (a raise is never memoized).

    >>> formula = parse_formula("cycle(deq[i]) - cycle(enq[i]) <= 50")
    >>> formula.op
    '<='
    >>> sorted(formula.events())
    ['deq', 'enq']
    """
    return _Parser(tokenize(text)).parse_formula()
