"""Each Teichmuller lift is one p-power chain: entry i is the p-th power
of entry i - 1, still expanded by FreePoly.__pow__.  The chains are
compared with the direct powers a ** p**i, the lift of b^{p^s} in a
commutator generator with a test-local copy of the b ** q formula, and
the number of powers taken is counted."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from omega_oracle import omega_as_teichmuller_sum

from ncwitt import (
    Alphabet,
    CoordinateTuple,
    FreePoly,
    ResourceLimit,
    WittContext,
    XVector,
    abelianize,
    check_bracket_identity,
    commutator_generator,
    omega_map,
    verschiebung,
    w_teichmuller,
    x_teichmuller,
)
from ncwitt.freealg import p_powers
from ncwitt.verify import sample_nonconstant_poly, sample_poly

AB = Alphabet(["X", "Y"])
ONE = Alphabet(["T"])

#: (p, n, alphabet, most terms): a^{p^(n-1)} stays small enough to expand
#: directly, up to a two-term a^9 or a three-term a^8 over {X, Y}
SHAPES = [(2, n, AB, 3) for n in range(1, 5)] + [
    (3, 1, AB, 3),
    (3, 2, AB, 3),
    (3, 3, AB, 2),
    (3, 4, AB, 1),
    (3, 4, ONE, 3),
]


def small_polys(alphabet, most_terms):
    word = st.lists(st.integers(0, len(alphabet) - 1), max_size=2).map(tuple)
    terms = st.dictionaries(word, st.integers(-3, 3), max_size=most_terms)
    return terms.map(lambda t: FreePoly(alphabet, t))


def shape_and_polys(count):
    """(p, n, polys): `count` polynomials, for a shape drawn from SHAPES."""

    def draw(shape):
        p, n, alphabet, most_terms = shape
        polys = st.lists(small_polys(alphabet, most_terms), min_size=count, max_size=count)
        return st.tuples(st.just(p), st.just(n), polys)

    return st.sampled_from(SHAPES).flatmap(draw)


@settings(max_examples=60, deadline=None)
@given(shape_and_polys(1))
def test_p_powers_equals_direct_powers(case):
    p, n, (a,) = case
    chain = p_powers(a, p, n)
    assert chain == [a ** p**i for i in range(n)]
    assert chain[0] is a


@settings(max_examples=60, deadline=None)
@given(shape_and_polys(1))
def test_teichmuller_lifts_equal_direct_expansions(case):
    p, n, (a,) = case
    ctx = WittContext(a.alphabet, p, n)
    assert x_teichmuller(ctx, a).entries == tuple(a ** p**i for i in range(n))
    assert w_teichmuller(ctx, a).entries == tuple(abelianize(a ** p**i) for i in range(n))


@settings(max_examples=60, deadline=None)
@given(shape_and_polys(4), st.integers(1, 4))
def test_omega_map_equals_teichmuller_sum_oracle(case, k):
    p, n, polys = case
    coords = CoordinateTuple.of(WittContext(polys[0].alphabet, p, n), polys[: min(k, n)])
    assert omega_map(coords) == omega_as_teichmuller_sum(coords)


def direct_commutator_generator(m, n_shift, a_factors, b_factors, level, p):
    """The generator formula with each lift expanded as a ** p**i, and each
    b raised to q = p^(n_shift - m) before its lift."""
    ctx = WittContext(a_factors[0].alphabet, p, level + 1)

    def lift_product(factors):
        entries = []
        for i in range(ctx.n):
            e = factors[0] ** p**i
            for f in factors[1:]:
                e = e * f ** p**i
            entries.append(e)
        return XVector(ctx, tuple(entries))

    q = p ** (n_shift - m)
    left = lift_product(a_factors)
    right = lift_product([b**q for b in b_factors])
    bracket = left * right - right * left
    for _ in range(n_shift):
        bracket = verschiebung(bracket)
    return p**m * bracket


def generator_cases(seed):
    """Seeded (m, n_shift, a, b, level, p): m <= n_shift <= 2 and levels
    1-3 at p = 2, levels 1-2 at p = 3; one- and two-factor sides of
    single terms, and single two-term factors where the powers stay small."""
    rng = random.Random(seed)
    for p, levels in ((2, (1, 2, 3)), (3, (1, 2))):
        for level in levels:
            for n_shift in range(3):
                for m in range(n_shift + 1):
                    for _ in range(3):
                        a = [sample_nonconstant_poly(rng, AB) for _ in range(rng.randint(1, 2))]
                        b = [sample_nonconstant_poly(rng, AB) for _ in range(rng.randint(1, 2))]
                        yield m, n_shift, a, b, level, p
                    if p ** (level + n_shift - m) <= 8:
                        a, b = sample_poly(rng, AB, 2, 2), sample_poly(rng, AB, 1, 2)
                        yield m, n_shift, [a], [b], level, p


def test_commutator_generator_matches_direct_formula():
    cases = list(generator_cases(31))
    assert len(cases) > 100
    nonzero = 0
    for m, n_shift, a, b, level, p in cases:
        got = commutator_generator(m, n_shift, a, b, level, p)
        assert got == direct_commutator_generator(m, n_shift, a, b, level, p), (m, n_shift, level, p)
        nonzero += not got.is_zero()
    assert nonzero > len(cases) // 2


@pytest.fixture
def powers(monkeypatch):
    """Records every FreePoly.__pow__ call as (base, exponent, result)."""
    calls = []
    power = FreePoly.__pow__

    def recording(self, k):
        result = power(self, k)
        calls.append((self, k, result))
        return result

    monkeypatch.setattr(FreePoly, "__pow__", recording)
    return calls


def chain_length(calls, start):
    """The number of recorded calls along the chain that starts at
    `start`: each call's base is the result of the one before."""
    length, base = 0, start
    while True:
        step = [result for b, _, result in calls if b is base]
        assert len(step) <= 1
        if not step:
            return length
        length, base = length + 1, step[0]


@pytest.mark.parametrize(
    "p, a", [(2, FreePoly(AB, {(0,): 1, (1,): -1})), (3, FreePoly(ONE, {(0,): 1, (): -1}))]
)
def test_x_teichmuller_takes_one_pth_power_per_entry(powers, p, a):
    x_teichmuller(WittContext(a.alphabet, p, 4), a)
    assert [k for _, k, _ in powers] == [p, p, p]
    assert chain_length(powers, a) == 3


@pytest.mark.parametrize("m, n_shift", [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)])
def test_bracket_identity_powers_each_chain_once(powers, m, n_shift):
    rng = random.Random(7)
    a = [sample_nonconstant_poly(rng, AB) for _ in range(2)]
    b = [sample_nonconstant_poly(rng, AB) for _ in range(2)]
    level = 3
    assert check_bracket_identity(m, n_shift, a, b, level, p=2)
    assert {k for _, k, _ in powers} == {2}
    assert [chain_length(powers, f) for f in a] == [level] * 2
    assert [chain_length(powers, f) for f in b] == [level + n_shift - m] * 2
    assert len(powers) == 2 * level + 2 * (level + n_shift - m)


@pytest.mark.parametrize("p, count", [(2, 14), (3, 9)])
def test_a_constant_chain_is_bounded_by_its_last_exponent(p, count):
    # each step raises to the power p only, so the letter budget must see
    # p^(count-1) itself, as a ** p^(count-1) does
    for a in (FreePoly.one(AB), FreePoly.zero(AB)):
        assert len(p_powers(a, p, count - 1)) == count - 1
        with pytest.raises(ResourceLimit, match=f"power {p ** (count - 1)} of a degree-"):
            p_powers(a, p, count)


def test_a_single_entry_chain_takes_no_power():
    a = FreePoly.monomial(AB, (0,) * 5000)
    assert p_powers(a, 2, 1) == [a]
    with pytest.raises(ResourceLimit, match="letter budget"):
        p_powers(a, 2, 2)
