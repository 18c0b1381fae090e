"""The parser as it was before each value token carried its exponent:
one token per integer, name, operator and '^', read by a loop that looks
for a '^' after every value.  Kept as an oracle for the differential tests
in test_parser.py; parse_poly here must agree with ncwitt.parse_poly on
every text, in value or in exception type, message and position.  It
has two checks the first version lacked: the letter budget bounds the word
of each term, plain or through parenthesised products (check_word), and an
exponent of more than 20 significant digits is refused by its digit
count."""

from __future__ import annotations

import re
from math import ceil, log2

from ncwitt.freealg import (
    LETTER_BUDGET, Alphabet, FreePoly, ResourceLimit, check_bits, check_letters, coefficient_bits
)
from ncwitt.parser import ParseError, UnknownGenerator


# A decimal integer, a name (\w is str.isalnum() or '_') or one other
# character; whitespace matches none of them and is skipped.
_TOKEN = re.compile(r"(\d+)|(\w+)|(\S)")


def _tokenize(text: str, alphabet: Alphabet) -> list[tuple[str, str, int]]:
    """(kind, text, position) tuples: kind is 'int', 'gen', 'end' or the
    operator character itself.  Over single-character names, a 'gen'
    token is a whole run of generators, such as XYXY."""
    index = alphabet._index
    letters = "".join(alphabet.names) if alphabet.single_char else None
    tokens = []
    for m in _TOKEN.finditer(text):
        number, name, other = m.groups()
        i = m.start()
        if number:
            tokens.append(("int", number, i))
        elif other:
            if other not in "+-*^()":
                raise ParseError(f"unexpected character {other!r}", i)
            tokens.append((other, other, i))
        elif not (name[0].isalpha() or name[0] == "_"):
            raise ParseError(f"unexpected character {name[0]!r}", i)
        elif letters is not None:
            rest = name.lstrip(letters)
            if rest:
                raise UnknownGenerator(rest[0], i + len(name) - len(rest))
            tokens.append(("gen", name, i))
        elif name in index:
            tokens.append(("gen", name, i))
        else:
            raise UnknownGenerator(name, i)
    tokens.append(("end", "", len(text)))
    return tokens


def check_word(length: int) -> None:
    if length > LETTER_BUDGET:
        raise ResourceLimit(
            f"a term of {length:,} letters, above the letter budget of {LETTER_BUDGET:,}"
        )


def _term_start(tokens, i: int, sign: int) -> tuple[int, int]:
    """The index after an optional unary '-' at tokens[i], and the sign."""
    return (i + 1, -sign) if tokens[i][0] == "-" else (i, sign)


def _exponent(tokens, i: int) -> tuple[int, int]:
    """The exponent of the factor that ends before tokens[i] (1 if it has
    none), and the index after it."""
    if tokens[i][0] != "^":
        return 1, i
    kind, text, position = tokens[i + 1]
    if kind != "int":
        raise ParseError("exponent must be a non-negative integer", position)
    # past COUNT_CAP; counted before int() runs, which refuses over 4,300 digits
    digits = text.lstrip("0")
    if len(digits) > 20:
        raise ResourceLimit(
            f"an exponent of {len(digits):,} digits, above the letter budget of {LETTER_BUDGET:,}"
        )
    return int(digits or 0), i + 2


def _times_word(prefix: FreePoly | None, word: list[int], alphabet: Alphabet) -> FreePoly:
    """prefix * word, where prefix None stands for 1."""
    monomial = FreePoly._from_terms(alphabet, {tuple(word): 1})
    return monomial if prefix is None else prefix * monomial


def _add_term(terms: dict, coeff: int, term: FreePoly) -> None:
    for w, c in term._terms.items():
        s = terms.get(w, 0) + coeff * c
        if s:
            terms[w] = s
        else:
            terms.pop(w, None)


def parse_poly(text: str, alphabet: Alphabet) -> FreePoly:
    """Parse an expression into an exact free polynomial."""
    tokens = _tokenize(text, alphabet)
    index = alphabet._index
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
        kind, tok, position = tokens[i]
        i += 1
        if kind == "(":
            groups.append((terms, coeff, word, prefix))
            terms, word, prefix = {}, [], None
            i, coeff = _term_start(tokens, i, 1)
            continue
        if kind == "gen":
            letters = (index[tok],) if tok in index else tuple(map(index.__getitem__, tok))
            n, i = _exponent(tokens, i)
            check_letters(n, 1)
            # the term's letters, bounded before the word grows
            base = 0 if prefix is None else max(prefix.degree, 0)
            check_word(base + len(word) + len(letters) - 1 + n)
            if n != 1:
                # the exponent binds to the last letter of a run
                letters = letters[:-1] + letters[-1:] * n
            word += letters
        elif kind == "int":
            n, i = _exponent(tokens, i)
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
            kind, tok, position = tokens[i]
            if kind == "*":
                i += 1
                break
            if kind in juxtaposed:
                break
            if prefix is not None:
                check_bits(coeff.bit_length() + coefficient_bits(prefix), "term coefficient")
            _add_term(terms, coeff, _times_word(prefix, word, alphabet))
            if kind == "+" or kind == "-":
                i, coeff = _term_start(tokens, i + 1, -1 if kind == "-" else 1)
                word, prefix = [], None
                break
            if kind == ")" and groups:
                inner = FreePoly._from_terms(alphabet, terms)
                terms, coeff, word, prefix = groups.pop()
                n, i = _exponent(tokens, i + 1)
                power = inner if n == 1 else inner**n
                base = 0 if prefix is None else max(prefix.degree, 0)
                check_word(base + len(word) + max(power.degree, 0))
                prefix = _times_word(prefix, word, alphabet) * power
                check_bits(coefficient_bits(prefix), "coefficients of a parenthesised product")
                word = []
                continue
            if groups:
                raise ParseError(f"expected ')', found {tok!r}", position)
            if kind != "end":
                raise ParseError(f"trailing input {tok!r}", position)
            return FreePoly._from_terms(alphabet, terms)
