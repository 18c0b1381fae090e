"""Property tests for the sparse-combination arithmetic that FreePoly and
AbelPoly share, the ring axioms of FreePoly, the canonical rotation
against its brute-force oracle, format_word against its groupby oracle,
the abelianization and its fast path (trace powers), H-membership against its reduce_mod definition, GF(2)
span membership against brute force over subsets, for the parser
against FreePoly arithmetic, and for the Witt-tuple core that
coordinates, ghost vectors and componentwise lifts share."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_cdwitt import brute_f2_span_membership, h_membership_by_reduce_mod, reduce_mod
from test_cycquot import brute_least_rotation
from test_freealg import groupby_format_word

from ncwitt import (
    AbelPoly,
    Alphabet,
    AlphabetMismatch,
    ContextMismatch,
    CoordinateTuple,
    FreePoly,
    GhostVector,
    InputError,
    ParseError,
    ResourceLimit,
    UnknownGenerator,
    WittContext,
    XVector,
    abelianize,
    f2_span_membership,
    h_membership,
    least_rotation,
    parse_poly,
    trace_power,
    verschiebung,
    x_abelianize,
)
from ncwitt.freealg import format_word

AB = Alphabet(["X", "Y"])
MULTI = Alphabet(["Ab", "Cd", "E"])
ONE = Alphabet(["T"])
XYZ = Alphabet(["X", "Y", "Z"])

words = st.lists(st.integers(0, 1), max_size=6).map(tuple)


def polys(alphabet=AB):
    letter = st.integers(0, len(alphabet) - 1)
    word = st.lists(letter, max_size=5).map(tuple)
    return st.dictionaries(word, st.integers(-9, 9), max_size=5).map(
        lambda terms: FreePoly(alphabet, terms)
    )


def same_alphabet(count):
    return st.sampled_from([AB, MULTI, ONE]).flatmap(lambda alphabet: st.tuples(*[polys(alphabet)] * count))


@settings(max_examples=60, deadline=None)
@given(same_alphabet(3))
def test_product_is_associative(fgh):
    f, g, h = fgh
    assert (f * g) * h == f * (g * h)


@settings(max_examples=60, deadline=None)
@given(same_alphabet(3))
def test_product_distributes_over_sum(fgh):
    f, g, h = fgh
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@settings(max_examples=30, deadline=None)
@given(polys(AB), polys(MULTI))
def test_mixed_alphabets_raise_alphabet_mismatch(f, g):
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        for a, b in ((f, g), (g, f)):
            with pytest.raises(AlphabetMismatch):
                op(a, b)


def rotation_words(k):
    """Words over k letters of up to 64 letters, rotated at random: random
    letters, runs of one letter, and powers u^m of either, where the skip
    rules of a linear-time least rotation go wrong first."""
    letter = st.integers(0, k - 1)
    runs = st.lists(st.tuples(letter, st.integers(1, 16)), max_size=8).map(
        lambda rs: [a for a, m in rs for _ in range(m)]
    )
    base = st.lists(letter, max_size=64) | runs
    return st.tuples(base, st.integers(1, 8), st.integers(0, 63)).map(
        lambda t: tuple(_rotate((t[0] * t[1])[:64], t[2]))
    )


def _rotate(w, r):
    r = r % len(w) if w else 0
    return w[r:] + w[:r]


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 5).flatmap(rotation_words))
def test_least_rotation_matches_brute_force(w):
    assert least_rotation(w) == brute_least_rotation(w)


def format_words(alphabet):
    # runs of one letter come from repeated draws, most often over {T}
    letter = st.integers(0, len(alphabet) - 1)
    return st.tuples(st.just(alphabet), st.lists(letter, max_size=64).map(tuple))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([AB, ONE, MULTI]).flatmap(format_words))
def test_format_word_matches_groupby(case):
    alphabet, w = case
    assert format_word(w, alphabet) == groupby_format_word(w, alphabet)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_abelianize_is_additive(f, g):
    assert abelianize(f + g) == abelianize(f) + abelianize(g)
    assert abelianize(f - g) == abelianize(f) - abelianize(g)


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(-5, 5))
def test_abelianize_commutes_with_scaling(f, k):
    assert abelianize(k * f) == k * abelianize(f)
    assert abelianize(f * k) == abelianize(f) * k


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(2, 7))
def test_abelianize_commutes_with_reduce_mod(f, m):
    # merging rotations can push a reduced coefficient back past m
    assert reduce_mod(abelianize(reduce_mod(f, m)), m) == reduce_mod(abelianize(f), m)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_abelianize_is_trace_like(f, g):
    assert abelianize(f * g) == abelianize(g * f)


# Signed terms of mixed length, the empty word (a constant term) and the
# zero polynomial included.  Powers up to 6 of four terms stay small enough
# to expand as the oracle.
small_polys = st.sampled_from([AB, ONE]).flatmap(
    lambda alphabet: st.dictionaries(
        st.lists(st.integers(0, len(alphabet) - 1), max_size=3).map(tuple),
        st.integers(-4, 4),
        max_size=4,
    ).map(lambda terms: FreePoly(alphabet, terms))
)


@settings(max_examples=80, deadline=None)
@given(small_polys, st.integers(0, 6))
def test_trace_power_equals_expanded_power(f, n):
    assert trace_power(f, n) == abelianize(f**n)


@settings(max_examples=60, deadline=None)
@given(words, st.integers(1, 9))
def test_abel_poly_keys_must_be_canonical(w, c):
    if w == least_rotation(w):
        assert AbelPoly(AB, {w: c}).coefficient(w) == c
    else:
        with pytest.raises(ValueError, match="non-canonical"):
            AbelPoly(AB, {w: c})


@settings(max_examples=30, deadline=None)
@given(words, st.integers(2, 4))
def test_abel_poly_rejects_letters_outside_alphabet(w, bad):
    key = least_rotation(w + (bad,))
    with pytest.raises(ValueError, match="outside the alphabet"):
        AbelPoly(AB, {key: 1})


h_words = st.one_of(
    st.lists(st.integers(0, 1), max_size=6).map(tuple), st.sampled_from([(0, 1, 0, 1), (1, 0, 1, 0)])
)
h_terms = st.dictionaries(h_words, st.integers(-7, 7), max_size=8)


@settings(max_examples=150, deadline=None)
@given(h_terms, st.sets(h_words), h_terms)
def test_h_membership_matches_reduce_mod(odd, cancelled, even):
    # the terms of `odd` on words in `cancelled` sum to zero; `even` adds
    # even coefficients, positive and negative
    f = (
        FreePoly(AB, odd)
        - FreePoly(AB, {w: c for w, c in odd.items() if w in cancelled})
        + 2 * FreePoly(AB, even)
    )
    assert h_membership(f) == h_membership_by_reduce_mod(f)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([AB, MULTI]).flatmap(polys))
def test_parse_inverts_str(f):
    assert parse_poly(str(f), f.alphabet) == f


# Name-shaped strings (a letter or '_', then word characters: digits, '²',
# '٣' and the numeral 'Ⅻ' among them) and arbitrary short text, so that
# both single-character and multi-character alphabets are drawn.
generator_names = st.one_of(
    st.tuples(
        st.sampled_from("XYabé_ΩªǅZ"), st.text(st.sampled_from("XYa_0129²٣Ⅻé"), max_size=3)
    ).map("".join),
    st.text(max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(generator_names, generator_names)
def test_accepted_generator_names_parse_back(a, b):
    # Alphabet accepts exactly the names the parser reads as one generator
    try:
        alphabet = Alphabet([a, b])
    except InputError:
        assume(False)
    g, h = (FreePoly.generator(alphabet, name) for name in (a, b))
    for f in (g, 2 * g, g * h):
        assert parse_poly(str(f), alphabet) == f


# -- the parser against FreePoly arithmetic -----------------------------------
#
# A node is (text, precedence, starts with '-', value): precedence 0 is a
# sum, 1 a term, 2 a power and 3 an atom, as in the grammar of parser.py.
# Each operand is put in parentheses only when its precedence is too low,
# so most text takes the parser's term-building path, not FreePoly.


def _operand(node, lowest):
    text, prec, minus, _ = node
    return text if prec >= lowest and not (minus and lowest > 1) else f"({text})"


def _juxtapose(left, right, alphabet):
    if not alphabet.single_char:
        return f"{left}*{right}"
    # a digit after a letter or a digit would join its run or number
    return left + (" " if right[0].isdigit() else "") + right


def _sum(signed):
    (_, first), rest = signed[0], signed[1:]
    text, value = _operand(first, 0), first[3]
    for sign, node in rest:
        text += f" {sign} {_operand(node, 1)}"
        value = value + node[3] if sign == "+" else value - node[3]
    return text, 0, first[2], value


def _product(factors, alphabet):
    (_, first), rest = factors[0], factors[1:]
    text, value = _operand(first, 1), first[3]
    for star, node in rest:
        right = _operand(node, 2)
        text = f"{text}*{right}" if star else _juxtapose(text, right, alphabet)
        value = value * node[3]
    return text, 1, first[2], value


def _few_terms(limit):
    return lambda node: len(node[3]) <= limit


def expressions(alphabet):
    atoms = st.integers(0, 12).map(
        lambda c: (str(c), 3, False, FreePoly.constant(alphabet, c))
    ) | st.sampled_from(alphabet.names).map(
        lambda g: (g, 3, False, FreePoly.generator(alphabet, g))
    )
    # short sums among the leaves, so that products often have a factor in
    # parentheses, the one factor the parser evaluates in the ring
    leaves = atoms | st.lists(st.tuples(st.sampled_from("+-"), atoms), min_size=2, max_size=3).map(_sum)

    def extend(nodes):
        return st.one_of(
            st.lists(st.tuples(st.sampled_from("+-"), nodes), min_size=2, max_size=4).map(_sum),
            st.lists(st.tuples(st.booleans(), nodes.filter(_few_terms(6))), min_size=2, max_size=4).map(
                lambda factors: _product(factors, alphabet)
            ),
            st.tuples(nodes.filter(_few_terms(3)), st.integers(0, 3)).map(
                lambda t: (f"{_operand(t[0], 3)}^{t[1]}", 2, False, t[0][3] ** t[1])
            ),
            nodes.map(lambda n: (f"-{_operand(n, 2)}", 1, True, -n[3])),
        )

    return st.recursive(leaves, extend, max_leaves=16)


@settings(max_examples=150, deadline=None)
@given(st.one_of([st.tuples(st.just(ab), expressions(ab)) for ab in (AB, MULTI, ONE)]))
def test_parse_poly_evaluates_like_free_poly(case):
    alphabet, (text, _, _, value) = case
    assert parse_poly(text, alphabet) == value


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([AB, MULTI, ONE]),
    st.text(st.sampled_from(list("XYTAbCdE()+-*^0129 ")) | st.characters(), max_size=30),
)
def test_parse_poly_raises_only_its_own_errors(alphabet, text):
    try:
        f = parse_poly(text, alphabet)
    except (ParseError, UnknownGenerator, ResourceLimit):
        return
    assert isinstance(f, FreePoly)


# -- the Witt-tuple core ------------------------------------------------------

contexts = st.builds(WittContext, st.just(AB), st.sampled_from([2, 3]), st.integers(1, 3))


def xvectors(ctx):
    return st.lists(polys(), min_size=ctx.n, max_size=ctx.n).map(
        lambda entries: XVector(ctx, tuple(entries))
    )


@settings(max_examples=60, deadline=None)
@given(contexts.flatmap(lambda ctx: st.tuples(xvectors(ctx), xvectors(ctx))), st.integers(-5, 5))
def test_x_abelianize_is_a_group_map_commuting_with_verschiebung(pair, k):
    # the square that lets ghosts and lifts share one group law and one V
    x, y = pair
    assert x_abelianize(x + y) == x_abelianize(x) + x_abelianize(y)
    assert x_abelianize(x - y) == x_abelianize(x) - x_abelianize(y)
    assert x_abelianize(k * x) == k * x_abelianize(x) == x_abelianize(x) * k
    assert x_abelianize(verschiebung(x)) == verschiebung(x_abelianize(x))


@settings(max_examples=20, deadline=None)
@given(contexts)
def test_mixing_tuple_types_raises_type_error(ctx):
    with pytest.raises(TypeError):
        CoordinateTuple.of(ctx) + CoordinateTuple.of(ctx)
    with pytest.raises(TypeError):
        GhostVector.of(ctx) + XVector.of(ctx)
    with pytest.raises(TypeError):
        XVector.of(ctx) - GhostVector.of(ctx)
    with pytest.raises(TypeError):
        verschiebung(CoordinateTuple.of(ctx))
    with pytest.raises(TypeError):
        XVector.of(ctx) + 1


@settings(max_examples=20, deadline=None)
@given(contexts, contexts)
def test_adding_across_contexts_raises_context_mismatch(c1, c2):
    for cls in (GhostVector, XVector):
        if c1 == c2:
            assert (cls.of(c1) + cls.of(c2)).is_zero()
        else:
            with pytest.raises(ContextMismatch):
                cls.of(c1) + cls.of(c2)


@settings(max_examples=20, deadline=None)
@given(contexts, polys())
def test_of_pads_with_the_entry_zero(ctx, f):
    for cls, zero in (
        (CoordinateTuple, FreePoly.zero(AB)),
        (XVector, FreePoly.zero(AB)),
        (GhostVector, AbelPoly.zero(AB)),
    ):
        padded = cls.of(ctx)
        assert padded.is_zero()
        assert all(type(e) is type(zero) and e == zero for e in padded.entries)
    head = CoordinateTuple.of(ctx, [f])
    assert head.entries == (f,) + (FreePoly.zero(AB),) * (ctx.n - 1)


def span_classes(alphabet):
    # words up to degree 6, above every bound drawn below; even, negative
    # and cancelling coefficients (a word and its rotation share a class)
    word = st.lists(st.integers(0, len(alphabet) - 1), max_size=6).map(tuple)
    return st.dictionaries(word, st.integers(-4, 4), max_size=4).map(
        lambda terms: abelianize(FreePoly(alphabet, terms))
    )


@st.composite
def span_cases(draw):
    alphabet = draw(st.sampled_from([AB, XYZ]))
    generators = draw(st.lists(span_classes(alphabet), max_size=8))
    picks = draw(st.lists(st.booleans(), min_size=len(generators), max_size=len(generators)))
    summed = sum((g for g, pick in zip(generators, picks) if pick), AbelPoly.zero(alphabet))
    target = draw(st.sampled_from([summed, AbelPoly.zero(alphabet)]) | span_classes(alphabet))
    return target, generators, draw(st.integers(0, 5)), draw(st.permutations(range(len(generators))))


@settings(max_examples=100, deadline=None)
@given(span_cases())
def test_f2_span_membership_is_brute_force(case):
    target, generators, bound, order = case
    verdict = f2_span_membership(target, generators, bound)
    assert verdict == brute_f2_span_membership(target, generators, bound)
    assert f2_span_membership(target, [generators[i] for i in order], bound) == verdict
