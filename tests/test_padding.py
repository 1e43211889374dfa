import math
from fractions import Fraction

import pytest

from gyroproxy.oracles import naive_padded_size, smooth_numbers
from gyroproxy.padding import (
    DEFAULT_PRIMES,
    PaddedPlan,
    cost_score,
    dealias_minimum,
    factorize,
    plan_padded_size,
)


@pytest.mark.parametrize("n, factors", [
    (1, []),
    (2, [2]),
    (719, [719]),
    (720, [2, 2, 2, 2, 3, 3, 5]),
    (716, [2, 2, 179]),
    (97, [97]),
    (1024, [2] * 10),
])
def test_factorize_examples(n, factors):
    assert factorize(n) == factors


@pytest.mark.parametrize("bad", [0, -3])
def test_factorize_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        factorize(bad)


def test_factorize_product_and_order():
    for n in range(1, 2000):
        fs = factorize(n)
        assert math.prod(fs) == n
        assert fs == sorted(fs)


def test_cost_score():
    assert cost_score([2, 2, 2, 3, 3]) == 12
    assert cost_score([719]) == 719
    assert cost_score([]) == 0


@pytest.mark.parametrize("n, n_min", [
    (1, 2),
    (2, 3),
    (48, 72),
    (479, 719),
    (480, 720),
])
def test_dealias_minimum(n, n_min):
    assert dealias_minimum(n) == n_min


def test_dealias_minimum_custom_rule():
    assert dealias_minimum(10, rule=2) == 20
    assert dealias_minimum(10, rule=Fraction(1, 1)) == 10
    assert dealias_minimum(10, rule="5/3") == 17


def test_dealias_minimum_rejects_bad_inputs():
    with pytest.raises(ValueError):
        dealias_minimum(0)
    with pytest.raises(ValueError):
        dealias_minimum(10, rule=Fraction(1, 2))


@pytest.mark.parametrize("n, n_min, n_padded", [
    (48, 72, 72),
    (479, 719, 720),
    (480, 720, 720),
    (477, 716, 720),
    (1, 2, 2),
    (333, 500, 500),
])
def test_plan_examples(n, n_min, n_padded):
    plan = plan_padded_size(n)
    assert (plan.n_logical, plan.n_min, plan.n_padded) == (n, n_min, n_padded)
    assert math.prod(plan.factors) == plan.n_padded
    assert plan.cost_score == sum(plan.factors)


def test_naive_scheme_lands_on_large_primes():
    # the flawed predecessor: 477 -> 716 = 2*2*179
    assert naive_padded_size(477) == 716
    assert factorize(716) == [2, 2, 179]
    assert naive_padded_size(480) == 720
    assert naive_padded_size(48) == 72


def test_plan_minimal_against_smooth_table():
    table = smooth_numbers(dealias_minimum(512) + 64)
    for n in range(1, 513):
        plan = plan_padded_size(n)
        want = next(v for v in table if v >= plan.n_min)
        assert plan.n_padded == want, f"n_logical={n}"


def test_plan_monotone_in_logical_size():
    last = 0
    for n in range(1, 1500):
        padded = plan_padded_size(n).n_padded
        assert padded >= last
        last = padded


def test_plan_sound_for_large_inputs():
    for n in [10**4, 123457, 10**6 - 1, 10**6]:
        plan = plan_padded_size(n)
        assert plan.n_padded >= plan.n_min >= math.ceil(1.5 * n)
        assert all(f in DEFAULT_PRIMES for f in plan.factors)


def test_plan_overhead_bounded():
    # the smooth grid is dense enough that padding never exceeds 25%
    for n in range(8, 4097):
        plan = plan_padded_size(n)
        assert plan.n_padded <= 1.25 * plan.n_min


def test_plan_restricted_prime_sets():
    assert plan_padded_size(10, allowed_primes=(2,)).n_padded == 16
    assert plan_padded_size(10, allowed_primes=(3,)).n_padded == 27
    plan = plan_padded_size(479, allowed_primes=(2, 3))
    assert plan.n_padded == 729


def test_plan_rejects_bad_primes():
    with pytest.raises(ValueError):
        plan_padded_size(10, allowed_primes=())
    with pytest.raises(ValueError):
        plan_padded_size(10, allowed_primes=(4,))
    with pytest.raises(ValueError):
        plan_padded_size(10, allowed_primes=(2, 9))


def test_padded_plan_cost_score_follows_factors():
    assert PaddedPlan(10, 15, 16, (2, 2, 2, 2)).cost_score == 8
    with pytest.raises(TypeError):
        PaddedPlan(10, 15, 16, (2, 2, 2, 2), 999)


def test_padded_plan_validates_consistency():
    with pytest.raises(ValueError):
        PaddedPlan(10, 15, 16, (2, 2, 2))  # factors multiply to 8
    with pytest.raises(ValueError):
        PaddedPlan(10, 9, 16, (2, 2, 2, 2))  # n_min below n_logical
