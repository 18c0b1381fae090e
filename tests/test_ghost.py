import pytest

from ncwitt import (
    Alphabet,
    ContextMismatch,
    CoordinateTuple,
    FreePoly,
    GhostVector,
    WittContext,
    abelianize,
    check_wagen_decomposition,
    commutator,
    ghost_map,
    w_add,
    w_equal,
    w_teichmuller,
    w_verschiebung,
    witt_polynomial,
)
from ncwitt.verify import classical_witt_sum, sample_poly


@pytest.fixture
def ctx2(ab):
    return WittContext(ab, 2, 2)


@pytest.fixture
def ctx3(ab):
    return WittContext(ab, 2, 3)


class TestWittContext:
    @pytest.mark.parametrize("p", [1, 4, 6])
    def test_rejects_non_prime(self, ab, p):
        with pytest.raises(ValueError, match="prime"):
            WittContext(ab, p, 2)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_accepts_prime(self, ab, p):
        assert WittContext(ab, p, 2).p == p


class TestWittPolynomial:
    def test_omega0(self, ab, ctx2, X, Y):
        coords = CoordinateTuple.of(ctx2, [X + Y])
        assert witt_polynomial(0, coords) == X + Y

    def test_omega1(self, ab, ctx2, X, Y):
        coords = CoordinateTuple.of(ctx2, [X, Y])
        assert witt_polynomial(1, coords) == X**2 + 2 * Y

    def test_omega2_single(self, ab, ctx3, X):
        coords = CoordinateTuple.of(ctx3, [X])
        assert witt_polynomial(2, coords) == X**4

    def test_index_out_of_range(self, ctx2, X):
        coords = CoordinateTuple.of(ctx2, [X])
        with pytest.raises(IndexError):
            witt_polynomial(2, coords)


class TestGhostMap:
    def test_zero(self, ab, ctx3):
        assert ghost_map(CoordinateTuple.of(ctx3, [])).is_zero()

    def test_commutator_coordinate(self, ab, ctx2, X, Y):
        # oracle: (XY-YX)^2 abelianizes to 2[XYXY] - 2[XXYY]
        g = ghost_map(CoordinateTuple.of(ctx2, [commutator(X, Y)]))
        assert g.components[0].is_zero()
        assert g.components[1] == abelianize(commutator(X, Y) ** 2)
        assert g.components[1] == 2 * abelianize(
            FreePoly.monomial(ab, (0, 1, 0, 1)) - FreePoly.monomial(ab, (0, 0, 1, 1))
        )

    def test_single_slot(self, ab, X, Y):
        # coordinates with a in slot i give ghost (0,...,0, p^i a, p^i a^p, ...)
        ctx = WittContext(ab, 2, 4)
        a = X + Y
        for i in range(4):
            coords = [FreePoly.zero(ab)] * 4
            coords[i] = a
            g = ghost_map(CoordinateTuple.of(ctx, coords))
            for j in range(4):
                if j < i:
                    assert g.components[j].is_zero()
                else:
                    assert g.components[j] == (2**i) * abelianize(a ** (2 ** (j - i)))


class TestGroupStructure:
    def test_additive_identity(self, ctx2, X, Y):
        u = ghost_map(CoordinateTuple.of(ctx2, [X, Y]))
        assert w_equal(w_add(u, GhostVector.zero(u.context)), u)

    def test_teichmuller_sum(self, ab, ctx2, X, Y):
        s = w_add(w_teichmuller(ctx2, X), w_teichmuller(ctx2, Y))
        assert s.components[0] == abelianize(X + Y)
        assert s.components[1] == abelianize(X**2 + Y**2)

    def test_context_mismatch(self, ab, ctx2, ctx3, X):
        with pytest.raises(ContextMismatch):
            w_add(w_teichmuller(ctx2, X), w_teichmuller(ctx3, X))

    def test_v_additive(self, ab, ctx3, rng):
        for _ in range(10):
            u = ghost_map(
                CoordinateTuple.of(ctx3, [sample_poly(rng, ab, 2) for _ in range(3)])
            )
            v = ghost_map(
                CoordinateTuple.of(ctx3, [sample_poly(rng, ab, 2) for _ in range(3)])
            )
            assert w_equal(
                w_verschiebung(w_add(u, v)), w_add(w_verschiebung(u), w_verschiebung(v))
            )


class TestVerschiebung:
    def test_zero(self, ctx3):
        assert w_verschiebung(GhostVector.zero(ctx3)).is_zero()

    def test_teichmuller_shift(self, ab, ctx3, X):
        v = w_verschiebung(w_teichmuller(ctx3, X))
        assert v.components[0].is_zero()
        assert v.components[1] == 2 * abelianize(X)
        assert v.components[2] == 2 * abelianize(X**2)

    def test_matches_coordinate_shift(self, ab, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            ctx = WittContext(ab, 2, n)
            coords = [sample_poly(rng, ab, 2) for _ in range(n - 1)]
            shifted = CoordinateTuple.of(ctx, [FreePoly.zero(ab)] + coords)
            plain = ghost_map(CoordinateTuple.of(ctx, coords + [FreePoly.zero(ab)]))
            assert w_equal(ghost_map(shifted), w_verschiebung(plain))

    def test_witt_polynomial_shift_identity(self, ab, rng):
        # omega_i of shifted coordinates equals p * omega_{i-1}, in the free ring
        ctx = WittContext(ab, 2, 3)
        for _ in range(10):
            coords = [sample_poly(rng, ab, 2) for _ in range(2)]
            shifted = CoordinateTuple.of(ctx, [FreePoly.zero(ab)] + coords)
            plain = CoordinateTuple.of(WittContext(ab, 2, 2), coords)
            for i in range(1, 3):
                assert witt_polynomial(i, shifted) == 2 * witt_polynomial(i - 1, plain)


class TestTeichmuller:
    def test_zero(self, ab, ctx3):
        assert w_teichmuller(ctx3, FreePoly.zero(ab)).is_zero()

    def test_one(self, ab, ctx3):
        t = w_teichmuller(ctx3, FreePoly.one(ab))
        one = abelianize(FreePoly.one(ab))
        assert all(c == one for c in t.components)

    def test_sum_of_generators(self, ab, ctx3, X, Y):
        t = w_teichmuller(ctx3, X + Y)
        assert t.components[0] == abelianize(X + Y)
        assert t.components[1] == abelianize((X + Y) ** 2)
        assert t.components[2] == abelianize((X + Y) ** 4)


class TestEquality:
    def test_coordinate_vs_v(self, ab, ctx3, X):
        coords = CoordinateTuple.of(ctx3, [FreePoly.zero(ab), X])
        assert w_equal(ghost_map(coords), w_verschiebung(w_teichmuller(ctx3, X)))

    def test_distinct_teichmullers(self, ctx2, X, Y):
        assert not w_equal(w_teichmuller(ctx2, X), w_teichmuller(ctx2, Y))

    def test_commutator_slack_in_slot1(self, ab, ctx2, X, Y):
        u = ghost_map(CoordinateTuple.of(ctx2, [X, Y]))
        v = ghost_map(CoordinateTuple.of(ctx2, [X, Y + commutator(X, Y)]))
        assert w_equal(u, v)


class TestWagenDecomposition:
    def test_paper_case(self, ctx2, X, Y):
        assert check_wagen_decomposition(CoordinateTuple.of(ctx2, [X, Y]))

    def test_zero(self, ab):
        ctx = WittContext(ab, 2, 4)
        assert check_wagen_decomposition(CoordinateTuple.of(ctx, []))

    def test_random_sweep(self, ab, rng):
        for _ in range(20):
            n = rng.randint(1, 4)
            ctx = WittContext(ab, 2, n)
            coords = CoordinateTuple.of(ctx, [sample_poly(rng, ab, 2) for _ in range(n)])
            assert check_wagen_decomposition(coords)


class TestCommutativeSanity:
    def test_against_classical_witt_addition(self, rng):
        ab1 = Alphabet(["T"])
        ctx = WittContext(ab1, 2, 2)
        for _ in range(20):
            x0, x1, y0, y1 = (sample_poly(rng, ab1, 2) for _ in range(4))
            s0, s1 = classical_witt_sum(x0, x1, y0, y1)
            lhs = w_add(
                ghost_map(CoordinateTuple.of(ctx, [x0, x1])),
                ghost_map(CoordinateTuple.of(ctx, [y0, y1])),
            )
            assert w_equal(lhs, ghost_map(CoordinateTuple.of(ctx, [s0, s1])))

    def test_one_generator_commutators_vanish(self, rng):
        ab1 = Alphabet(["T"])
        for _ in range(10):
            f = sample_poly(rng, ab1, 3)
            g = sample_poly(rng, ab1, 3)
            assert commutator(f, g).is_zero()
