"""The recursive-descent infix parser: the reference for the operator table.

`efflam.surface` parses infix operators with one precedence-climbing
loop over its operator table.  This parser is the chain of one method
per binding level that the loop replaced, kept so that the tests can
check that both give the same term, or the same `ParseError`, for any
input.
"""

from __future__ import annotations

from efflam.prelude import apply_both, apply_left, apply_right, bind, lift_binary
from efflam.surface import _Parser
from efflam.syntax import App, Const, Context, Term


class ChainParser(_Parser):
    """`_Parser` with its terms parsed loosest binding first, one method
    per level: `>>=`, then `->`, then `/\\`, then `=`, then lifting."""

    def term(self) -> Term:
        left = self.imp_term()
        while self.at_sym(">>="):
            self.next()
            left = bind(left, self.imp_term())
        return left

    def imp_term(self) -> Term:
        left = self.conj_term()
        if self.at_sym("->"):
            self.require_constant("imp")
            return App(App(Const("imp"), left), self.imp_term())
        if self.at_sym("->~"):
            self.require_constant("imp")
            return lift_binary("imp", left, self.imp_term())
        return left

    def conj_term(self) -> Term:
        left = self.eq_term()
        while True:
            if self.at_sym("/\\"):
                self.require_constant("and")
                left = App(App(Const("and"), left), self.eq_term())
            elif self.at_sym("/\\~"):
                self.require_constant("and")
                left = lift_binary("and", left, self.eq_term())
            else:
                return left

    def eq_term(self) -> Term:
        left = self.lift_term()
        if self.at_sym("="):
            self.require_constant("eq")
            return App(App(Const("eq"), left), self.lift_term())
        if self.at_sym("=~"):
            self.require_constant("eq")
            return lift_binary("eq", left, self.lift_term())
        return left

    def require_constant(self, name: str) -> None:
        """Consume the operator at hand, which needs the constant `name`."""
        if name not in self.ctx.constants:
            self.fail(f"this sugar needs a declared constant {name}")
        self.next()

    def lift_term(self) -> Term:
        left = self.app_term()
        while True:
            if self.at_sym("<<."):
                self.next()
                left = apply_right(left, self.app_term())
            elif self.at_sym(".>>"):
                self.next()
                left = apply_left(left, self.app_term())
            elif self.at_sym("<<.>>"):
                self.next()
                left = apply_both(left, self.app_term())
            else:
                return left


def parse_term_by_chain(src: str, ctx: Context) -> Term:
    """`surface.parse_term`, with the infix operators parsed by the chain."""
    p = ChainParser(src, ctx)
    term = p.term()
    p.end("term")
    return term
