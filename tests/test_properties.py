"""Property tests for the sparse-combination arithmetic that FreePoly and
AbelPoly share, for the abelianization between them and its fast paths
(trace powers and the word-power map on classes), and for the Witt-tuple
core that coordinates, ghost vectors and componentwise lifts share."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncwitt import (
    AbelPoly,
    Alphabet,
    ContextMismatch,
    CoordinateTuple,
    FreePoly,
    GhostVector,
    WittContext,
    XVector,
    abelianize,
    least_rotation,
    parse_poly,
    phi_class,
    phi_map,
    trace_power,
    verschiebung,
    x_abelianize,
)

AB = Alphabet(["X", "Y"])
MULTI = Alphabet(["Ab", "Cd", "E"])
ONE = Alphabet(["T"])

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
@given(st.sampled_from([AB, MULTI]).flatmap(polys), st.integers(2, 5))
def test_phi_class_is_phi_map_on_classes(f, p):
    assert phi_class(abelianize(f), p) == abelianize(phi_map(f, p))


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
