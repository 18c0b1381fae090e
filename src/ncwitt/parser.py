"""Parser for free-algebra polynomial expressions.

Grammar (standard precedence, left-associative products):

    expr   := term (('+'|'-') term)*
    term   := ('-')? factor (('*')? factor)*
    factor := atom ('^' nat)?
    atom   := int | generator | '(' expr ')'

Juxtaposition multiplication (e.g. XYXY, 2XXYY) is allowed only when every
generator name is a single character; multi-character alphabets require
explicit '*'.  str(FreePoly) is the inverse: parsing a formatted
polynomial returns it exactly.

One regular-expression scan makes the tokens; a value (an integer, a
name or a ')') and its optional '^ nat' are one token.  A term is built
as a coefficient and a word; only a parenthesised factor is evaluated
with FreePoly products and powers.  Exponents are bounded by
freealg.check_letters, and the coefficients that literals, integer
powers and parenthesised products build by freealg.check_bits.
"""

from __future__ import annotations

import re
from math import ceil, log2

from .freealg import (
    LETTER_BUDGET, Alphabet, FreePoly, InputError, check_bits, check_letters, coefficient_bits
)


class ParseError(InputError):
    """Malformed expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownGenerator(InputError):
    """A symbol in the expression is not in the active alphabet."""

    def __init__(self, symbol: str, position: int):
        super().__init__(f"unknown generator {symbol!r} (at position {position})")
        self.symbol = symbol
        self.position = position


# A value (a decimal integer, a name, where \w is str.isalnum() or '_',
# or a ')') with the digits of its optional '^ nat', or one other
# character; whitespace matches none of them and is skipped.  A '^' not
# followed by digits matches alone.
_TOKEN = re.compile(r"(?:(\d+)|(\w+)|(\)))(?:\s*\^\s*(\d+))?|(\S)")


def _tokenize(text: str, alphabet: Alphabet):
    """The tokens of text, and the letters of each name among them.

    A token is a (kind, text, exponent, position) tuple: kind is 'int',
    'gen', ')', 'end' or the operator character itself, and exponent is
    the digits of a value's '^ nat' (None without one).  Over
    single-character names, a 'gen' token is a whole run of generators,
    such as XYXY; each name is checked against the alphabet once."""
    index = alphabet._index
    letters = "".join(alphabet.names) if alphabet.single_char else None
    runs: dict[str, tuple[int, ...]] = {}
    tokens = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        number, name, close, exponent, other = m.groups()
        i = m.start()
        if number:
            append(("int", number, exponent, i))
        elif name:
            if name not in runs:
                if not (name[0].isalpha() or name[0] == "_"):
                    raise ParseError(f"unexpected character {name[0]!r}", i)
                if letters is not None:
                    rest = name.lstrip(letters)
                    if rest:
                        raise UnknownGenerator(rest[0], i + len(name) - len(rest))
                    runs[name] = tuple(map(index.__getitem__, name))
                elif name in index:
                    runs[name] = (index[name],)
                else:
                    raise UnknownGenerator(name, i)
            append(("gen", name, exponent, i))
        elif close:
            append((")", ")", exponent, i))
        elif other in "+-*^(":
            append((other, other, None, i))
        else:
            raise ParseError(f"unexpected character {other!r}", i)
    append(("end", "", None, len(text)))
    return tokens, runs


def _term_start(tokens, i: int, sign: int) -> tuple[int, int]:
    """The index after an optional unary '-' at tokens[i], and the sign."""
    return (i + 1, -sign) if tokens[i][0] == "-" else (i, sign)


def _exponent(tokens, i: int, digits: str | None) -> int:
    """The exponent of the value before tokens[i], whose token captured
    `digits` (1 if it has none).  A '^' token at tokens[i] matched alone,
    so no non-negative integer follows it: an error."""
    if digits is not None:
        return int(digits)
    if tokens[i][0] == "^":
        raise ParseError("exponent must be a non-negative integer", tokens[i + 1][3])
    return 1


def _times_word(prefix: FreePoly | None, word: list[int], alphabet: Alphabet) -> FreePoly:
    """prefix * word, where prefix None stands for 1."""
    monomial = FreePoly._from_terms(alphabet, {tuple(word): 1})
    return monomial if prefix is None else prefix * monomial


def _add_term(terms: dict, w: tuple[int, ...], c: int) -> None:
    """terms += c * w, storing no zero coefficient."""
    s = terms.get(w, 0) + c
    if s:
        terms[w] = s
    else:
        terms.pop(w, None)


def parse_poly(text: str, alphabet: Alphabet) -> FreePoly:
    """Parse an expression into an exact free polynomial."""
    tokens, runs = _tokenize(text, alphabet)
    juxtaposed = ("int", "gen", "(") if alphabet.single_char else ()
    # The current term is coeff * prefix * word, where prefix is the
    # product up to its last parenthesised factor (None before one).
    # groups holds (terms, coeff, word, prefix) of each enclosing '('.
    groups = []
    terms: dict = {}
    i, coeff = _term_start(tokens, 0, 1)
    word: list[int] = []
    prefix = None
    while True:
        kind, tok, digits, position = tokens[i]
        i += 1
        if kind == "(":
            groups.append((terms, coeff, word, prefix))
            terms, word, prefix = {}, [], None
            i, coeff = _term_start(tokens, i, 1)
            continue
        if kind == "gen":
            letters = runs[tok]
            if digits is not None:
                # the letter budget, as check_letters(n, 1) tests it, inline
                # because most tokens of a long text pass here
                n = int(digits)
                if n > LETTER_BUDGET:
                    check_letters(n, 1)
                # the exponent binds to the last letter of a run
                letters = letters[:-1] + letters[-1:] * n
            elif tokens[i][0] == "^":
                _exponent(tokens, i, None)  # raises: no digits after the '^'
            word += letters
        elif kind == "int":
            n = _exponent(tokens, i, digits)
            check_letters(n, 0)
            # bounded before int() runs, which refuses over 4,300 digits
            check_bits(ceil(len(tok) * log2(10)), "integer literal")
            base = int(tok)
            if n != 1:
                check_bits(n * base.bit_length(), "integer power")
            coeff *= base**n
            check_bits(coeff.bit_length(), "term coefficient")
        else:
            raise ParseError(f"expected a value, found {tok!r}", position)

        while True:  # after a factor
            kind, tok, digits, position = tokens[i]
            if kind == "*":
                i += 1
                break
            if kind in juxtaposed:
                break
            if prefix is None:
                _add_term(terms, tuple(word), coeff)
            else:
                check_bits(coeff.bit_length() + coefficient_bits(prefix), "term coefficient")
                for w, c in _times_word(prefix, word, alphabet)._terms.items():
                    _add_term(terms, w, coeff * c)
            if kind == "+" or kind == "-":
                i, coeff = _term_start(tokens, i + 1, -1 if kind == "-" else 1)
                word, prefix = [], None
                break
            if kind == ")" and groups:
                inner = FreePoly._from_terms(alphabet, terms)
                terms, coeff, word, prefix = groups.pop()
                i += 1
                n = _exponent(tokens, i, digits)
                prefix = _times_word(prefix, word, alphabet) * (inner if n == 1 else inner**n)
                check_bits(coefficient_bits(prefix), "coefficients of a parenthesised product")
                word = []
                continue
            if groups:
                raise ParseError(f"expected ')', found {tok!r}", position)
            if kind != "end":
                raise ParseError(f"trailing input {tok!r}", position)
            return FreePoly._from_terms(alphabet, terms)
