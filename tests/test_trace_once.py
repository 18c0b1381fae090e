"""Each trace power of a polynomial object is computed once: r_map's
classes are reused by ghost_map on the same coordinates.  The expanded
x_abelianize(omega_map(coords)) stays the independent oracle."""

import random
import sys
import threading
from collections import Counter

import pytest

from ncwitt import (
    AbelPoly,
    CoordinateTuple,
    FreePoly,
    WittContext,
    abelianize,
    commutator,
    ghost_map,
    omega_map,
    r_map,
    trace_power,
    x_abelianize,
)
from ncwitt import cycquot
from ncwitt.verify import sample_commutator


@pytest.fixture
def computed(monkeypatch):
    """Counts the uncached trace computations by (id of f, n)."""
    counts = Counter()
    compute = cycquot._trace_power

    def counting(f, n):
        counts[id(f), n] += 1
        return compute(f, n)

    monkeypatch.setattr(cycquot, "_trace_power", counting)
    return counts


def test_level_five_pipeline_computes_each_trace_once(ab, X, Y, computed):
    coords = r_map([commutator(X, Y)], WittContext(ab, 2, 5))
    assert ghost_map(coords).is_zero()
    rs = coords.entries
    # r_map's step i and ghost component i both read tr(r_j^{2^(i-j)}), j < i
    expected = {(id(rs[j]), 2**k) for j in range(4) for k in range(1, 5 - j)}
    assert set(computed) == expected
    assert set(computed.values()) == {1}


def test_equal_polynomial_in_another_object_computes_anew(ab, X, Y, computed):
    f = commutator(X, Y)
    g = FreePoly(ab, dict(f._terms))
    assert f == g and f is not g
    first = trace_power(f, 8)
    assert trace_power(f, 8) is first
    assert computed == {(id(f), 8): 1}
    again = trace_power(g, 8)
    assert again == first and again is not first
    assert computed == {(id(f), 8): 1, (id(g), 8): 1}


def test_exponents_below_two_are_not_kept(ab, X, Y, computed):
    f = X + Y
    assert trace_power(f, 1) == abelianize(f)
    assert trace_power(f, 0) == AbelPoly(ab, {(): 1})
    assert not computed


def test_refused_trace_is_not_kept(ab, X, Y, computed):
    f = X**200 + Y
    for _ in range(2):
        with pytest.raises(ValueError, match="letter budget"):
            trace_power(f, 21)
    assert computed == {(id(f), 21): 2}


def test_threads_sharing_a_polynomial_get_correct_classes(ab, X, Y):
    f = commutator(X, Y) + X * Y * Y
    expected = {n: abelianize(f**n) for n in (2, 3, 4, 6, 8)}
    wrong = []

    def ask():
        for n in expected:
            if trace_power(f, n) != expected[n]:
                wrong.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    assert f._traces.keys() <= expected.keys()


def test_kept_classes_are_not_changed_by_ghost_map(ab, X, Y):
    coords = r_map([commutator(X, Y)], WittContext(ab, 2, 4))
    first = ghost_map(coords)
    assert ghost_map(coords) == first
    r0 = coords.entries[0]
    for n in (2, 4, 8):
        assert trace_power(r0, n) == abelianize(r0**n)


def test_shared_traces_do_not_hide_a_wrong_coordinate(ab, X, Y):
    ctx = WittContext(ab, 2, 5)
    coords = r_map([commutator(X, Y)], ctx)
    assert ghost_map(coords).is_zero()
    word = (0, 0, 0, 1, 1, 1)
    wrong = CoordinateTuple(
        ctx, coords.entries[:4] + (coords.entries[4] + FreePoly.monomial(ab, word),)
    )
    assert all(a is b for a, b in zip(wrong.entries[:4], coords.entries))
    ghost = ghost_map(wrong)
    assert all(e.is_zero() for e in ghost.entries[:4])
    assert ghost.entries[4] == AbelPoly(ab, {word: 16})


@pytest.mark.parametrize("seed", [None, 25])
def test_p3_level3_ghost_matches_expanded_oracle(ab, X, Y, seed):
    if seed is None:
        eps = commutator(X, Y)
    else:
        eps = sample_commutator(random.Random(seed), ab)
        assert len(eps) == 4 and eps.degree == 3
    coords = r_map([eps], WittContext(ab, 3, 3))
    ghost = ghost_map(coords)
    assert ghost == x_abelianize(omega_map(coords))
    assert ghost.is_zero()
