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

The unit of the one regular-expression scan is a plain product after its
sign, such as - 3X^2YXY^2.  One walk over its pieces (X^2, YXY^2) builds
each, or finds a short one built before, and bounds the term's word as it
grows.  Only parenthesised factors take FreePoly products.  Exponents (past
20 digits, by their count) and each term's word are bounded by LETTER_BUDGET,
coefficients by check_bits; a stray character or unknown name comes first.
"""

from __future__ import annotations

import re
from math import ceil, log2

from .freealg import (
    LETTER_BUDGET, Alphabet, FreePoly, InputError, ResourceLimit, check_bits, check_letters,
    coefficient_bits
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


# Compiled on first use.  An integer, and a run of generators: the
# alphabet's letters (any other letter ends the run, and the text is then
# refused), or one name after no integer.  Each is whole, with its '^ nat'
# or with no '^' after it; \w is str.isalnum() or '_'.
_INT = r"(?P<int>\d+)(?!\d)(?:\s*\^\s*(?P<exp>\d+)|(?!\s*\^))"
_LETTERS = r"(?:[{0}]+\s*\^\s*\d+)*(?:[{0}]+(?!\w|\s*\^))?"
_NAME = r"(?(int)|[^\W\d]\w*(?:\s*\^\s*\d+|(?!\w|\s*\^)))"
# An item: a product after its sign, if any; a ')' with its exponent, or
# with a '^' that no digits follow; a value with such a '^'; or another.
_ITEM = (
    r"(?:(?P<sign>[-+])\s*)?(?=\w)(?:{})?(?P<run>{})(?<=\w)"
    r"|(?P<close>\)(?:\s*\^\s*(?P<cexp>\d+)|(?P<badexp>\s*\^\s*))?)"
    r"|(?P<badval>\w+\s*\^\s*)|(?P<op>\S)"
)
# A piece of a run, such as YXY^2; a token of the text.
_PIECE = r"[^^]+(?:\^\s*\d+)?"
_TOKEN = r"(\d+)|(\w+)|(\S)"


def check_word(length: int) -> None:
    """Raise ResourceLimit if a term's word of length letters passes LETTER_BUDGET."""
    if length > LETTER_BUDGET:
        budget = f"above the letter budget of {LETTER_BUDGET:,}"
        raise ResourceLimit(f"a term of {length:,} letters, {budget}")


def _exponent(text: str | None) -> int:
    """The exponent that text spells, 1 for none.  Past 20 significant digits,
    beyond COUNT_CAP, it is refused by its digit count before int() runs."""
    digits = (text or "1").lstrip().lstrip("0")
    if len(digits) > 20:
        budget = f"above the letter budget of {LETTER_BUDGET:,}"
        raise ResourceLimit(f"an exponent of {len(digits):,} digits, {budget}")
    return int(digits or 0)


def _product(m, coeff: int, word: list, length: int, alphabet: Alphabet, words: dict, pieces_of):
    """coeff times the integer of product m; the word of its run is added
    to word, each piece bounded, in text order, before it is built.
    length is the term's letters so far.  words keeps up to
    LETTER_BUDGET // 32 pieces of at most 32 letters."""
    if m["int"]:
        n = _exponent(m["exp"])
        check_letters(n, 0)
        # before int() runs, which refuses over 4,300 digits
        check_bits(ceil(len(m["int"]) * log2(10)), "integer literal")
        base = int(m["int"])
        check_bits(n * base.bit_length(), "integer power")
        coeff *= base**n
        check_bits(coeff.bit_length(), "term coefficient")
    for piece in pieces_of(m["run"]):
        part = words.get(piece)
        if part is None:
            names, _, exponent = piece.partition("^")
            n = _exponent(exponent)
            check_letters(n, 1)
            gens = names.rstrip() if alphabet.single_char else (names.rstrip(),)
            part = tuple(map(alphabet._index.__getitem__, gens))
            part = part[:-1] + part[-1:] * n  # the exponent binds to the last letter
            if len(part) <= 32 and len(words) < LETTER_BUDGET // 32:
                words[piece] = part
        length += len(part)
        check_word(length)
        word += part
    return coeff


def _unexpected(what: str, text: str, m) -> ParseError:
    """A ParseError: what, then the token at item m ('' at the end)."""
    i = m.start() if m else len(text)
    return ParseError(f"{what} {(re.compile(_TOKEN).match(text, i) or [''])[0]!r}", i)


def _next_factor(items, sign: int, unary: bool):
    """The term's sign after a unary '-', if unary allows one, and the item
    that starts the next factor."""
    m = next(items, None)
    if unary and m and m["op"] == "-":
        sign, m, unary = -sign, next(items, None), False
    if m and m["sign"]:
        if not unary or m["sign"] == "+":
            raise ParseError(f"expected a value, found {m['sign']!r}", m.start())
        sign = -sign
    return sign, m


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
    try:
        return _parse(text, alphabet)
    except (KeyError, ValueError):  # a KeyError is an unknown name
        # the first stray character or unknown name, if any, comes first
        letters = "".join(alphabet.names) if alphabet.single_char else None
        for m in re.finditer(_TOKEN, text):
            _, name, other = m.groups()
            if other and other not in "+-*^()" or name and not name[0].isalpha() and name[0] != "_":
                raise ParseError(f"unexpected character {(other or name)[0]!r}", m.start())
            if letters is None and name and name not in alphabet._index:
                raise UnknownGenerator(name, m.start())
            rest = name.lstrip(letters) if letters and name else ""
            if rest:
                raise UnknownGenerator(rest[0], m.end() - len(rest))
        raise


def _parse(text: str, alphabet: Alphabet) -> FreePoly:
    single = alphabet.single_char
    run = _LETTERS.format(re.escape("".join(alphabet.names))) if single else _NAME
    items = re.compile(_ITEM.format(_INT, run)).finditer(text)
    pieces_of = re.compile(_PIECE).findall
    # The current term is coeff * prefix * word, where prefix is the
    # product up to its last parenthesised factor (None before one) and
    # base its degree (0 without one).  groups holds (terms, coeff, word,
    # prefix, base) of each enclosing '('.  words keeps short pieces.
    groups, terms, words = [], {}, {}
    word, prefix, base = [], None, 0
    coeff, m = _next_factor(items, 1, True)
    while True:
        kind = m and m.lastgroup
        if kind == "run":
            coeff = _product(m, coeff, word, base + len(word), alphabet, words, pieces_of)
        elif kind == "op" and m["op"] == "(":
            groups.append((terms, coeff, word, prefix, base))
            terms, word, prefix, base = {}, [], None, 0
            coeff, m = _next_factor(items, 1, True)
            continue
        elif kind == "badval":
            raise ParseError("exponent must be a non-negative integer", m.end())
        else:
            raise _unexpected("expected a value, found", text, m)
        m = next(items, None)

        while True:  # after a factor
            kind = m and m.lastgroup
            op = m["op"] if kind == "op" else m["sign"] if kind == "run" else None
            if op == "*":
                coeff, m = _next_factor(items, coeff, False)
                break
            if single and (op is None and kind in ("run", "badval") or op == "("):
                break
            if prefix is None:
                _add_term(terms, tuple(word), coeff)
            else:
                check_bits(coeff.bit_length() + coefficient_bits(prefix), "term coefficient")
                for w, c in _times_word(prefix, word, alphabet)._terms.items():
                    _add_term(terms, w, coeff * c)
            word, prefix, base = [], None, 0
            if op == "+" or op == "-":
                coeff = -1 if op == "-" else 1
                if kind == "op":
                    coeff, m = _next_factor(items, coeff, True)
                break
            if kind == "close" and groups:
                inner = FreePoly._from_terms(alphabet, terms)
                terms, coeff, word, prefix, base = groups.pop()
                if m["badexp"]:
                    raise ParseError("exponent must be a non-negative integer", m.end())
                power = inner ** _exponent(m["cexp"])
                check_word(base + len(word) + max(power.degree, 0))
                prefix = _times_word(prefix, word, alphabet) * power
                check_bits(coefficient_bits(prefix), "coefficients of a parenthesised product")
                word, base = [], max(prefix.degree, 0)
                m = next(items, None)
                continue
            if groups:
                raise _unexpected("expected ')', found", text, m)
            if m:
                raise _unexpected("trailing input", text, m)
            return FreePoly._from_terms(alphabet, terms)
