"""ghost.check_prime decides primality by deterministic Miller-Rabin and
refuses every p from PRIME_BOUND on."""

import time
from math import isqrt

import pytest

from ncwitt import InputError
from ncwitt.cli import run
from ncwitt.ghost import PRIME_BOUND, check_prime


def is_prime_by_trial_division(p):
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def accepts(p):
    try:
        check_prime(p)
    except InputError:
        return False
    return True


def test_agrees_with_trial_division_below_1e5():
    assert [p for p in range(-3, 10**5) if accepts(p)] == [
        p for p in range(-3, 10**5) if is_prime_by_trial_division(p)
    ]


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to every prime base up to 23
    ],
)
def test_refuses_strong_pseudoprimes(n):
    with pytest.raises(InputError, match=f"p must be a prime, got {n}"):
        check_prime(n)


@pytest.mark.parametrize("p", [10**14 + 31, 2**61 - 1, 2**64 - 59, 2**79 - 67])
def test_accepts_large_primes(p):
    check_prime(p)


def test_refuses_from_the_bound_on():
    for p in (PRIME_BOUND, 2**89 - 1):
        with pytest.raises(InputError, match="p must be below 3.3e\\+24"):
            check_prime(p)


def test_refuses_40_digits_at_once():
    p = 10**39 + 1
    start = time.perf_counter()
    with pytest.raises(InputError):
        check_prime(p)
    assert time.perf_counter() - start < 0.01


def test_cli_ghost_at_a_seven_digit_prime(capsys):
    assert run(["ghost", "--p", "1000003", "--level", "1", "X"]) == 0
    assert capsys.readouterr().out == "([X])\n"
