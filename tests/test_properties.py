"""Property tests for the sparse-combination arithmetic that FreePoly and
AbelPoly share, and for the abelianization between them."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncwitt import AbelPoly, Alphabet, FreePoly, abelianize, least_rotation, parse_poly

AB = Alphabet(["X", "Y"])
MULTI = Alphabet(["Ab", "Cd", "E"])

words = st.lists(st.integers(0, 1), max_size=6).map(tuple)


def polys(alphabet=AB):
    letter = st.integers(0, len(alphabet) - 1)
    word = st.lists(letter, max_size=5).map(tuple)
    return st.dictionaries(word, st.integers(-9, 9), max_size=5).map(
        lambda terms: FreePoly(alphabet, terms)
    )


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
    assert abelianize(f.reduce_mod(m)).reduce_mod(m) == abelianize(f).reduce_mod(m)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_abelianize_is_trace_like(f, g):
    assert abelianize(f * g) == abelianize(g * f)


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([AB, MULTI]).flatmap(polys))
def test_parse_inverts_str(f):
    assert parse_poly(str(f), f.alphabet) == f
