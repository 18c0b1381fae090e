"""Recursive-descent parser for free-algebra polynomial expressions.

Grammar (standard precedence, left-associative products):

    expr   := term (('+'|'-') term)*
    term   := ('-')? factor (('*')? factor)*
    factor := atom ('^' nat)?
    atom   := int | generator | '(' expr ')'

Juxtaposition multiplication (e.g. XYXY, 2XXYY) is allowed only when every
generator name is a single character; multi-character alphabets require
explicit '*'.  format_poly is the inverse: parsing a formatted polynomial
returns it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freealg import Alphabet, FreePoly


class ParseError(ValueError):
    """Malformed expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownGenerator(ValueError):
    """A symbol in the expression is not in the active alphabet."""

    def __init__(self, symbol: str, position: int):
        super().__init__(f"unknown generator {symbol!r} (at position {position})")
        self.symbol = symbol
        self.position = position


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int', 'gen', 'op', 'end'
    text: str
    position: int


def _tokenize(text: str, alphabet: Alphabet) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if c in "+-*^()":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            run = text[i:j]
            if run in alphabet._index:
                tokens.append(_Token("gen", run, i))
            elif alphabet.single_char:
                # split a run like XYXY into single-letter generators
                for k, ch in enumerate(run):
                    if ch not in alphabet._index:
                        raise UnknownGenerator(ch, i + k)
                    tokens.append(_Token("gen", ch, i + k))
            else:
                raise UnknownGenerator(run, i)
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], alphabet: Alphabet):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = alphabet

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.position)
        return self.advance()

    def parse_expr(self) -> FreePoly:
        result = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.parse_term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def parse_term(self) -> FreePoly:
        negate = False
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            negate = True
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                result = result * self.parse_factor()
            elif self.alphabet.single_char and (
                tok.kind in ("int", "gen") or (tok.kind == "op" and tok.text == "(")
            ):
                result = result * self.parse_factor()
            else:
                break
        return -result if negate else result

    def parse_factor(self) -> FreePoly:
        base = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "int":
                raise ParseError("exponent must be a non-negative integer", tok.position)
            self.advance()
            base = base ** int(tok.text)
        return base

    def parse_atom(self) -> FreePoly:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return FreePoly.constant(self.alphabet, int(tok.text))
        if tok.kind == "gen":
            self.advance()
            return FreePoly.generator(self.alphabet, tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected a value, found {tok.text!r}", tok.position)


def parse_poly(text: str, alphabet: Alphabet) -> FreePoly:
    """Parse an expression into an exact free polynomial."""
    parser = _Parser(_tokenize(text, alphabet), alphabet)
    result = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.position)
    return result


def format_poly(f: FreePoly) -> str:
    """Canonical text form; parse_poly(format_poly(f)) == f."""
    return str(f)
