"""Dealiasing-padded FFT size planning.

Mixed-radix FFTs are fast when the transform size factors into small
primes and slow when a large prime shows up.  Dealiasing a quadratic
nonlinearity forces the padded size to at least 3/2 of the retained mode
count, but any size at or above that bound is correct, so the planner is
free to pick the smallest one whose factors stay inside an allowed prime
set.

``oracles.naive_padded_size`` models the flawed scheme this replaces:
round the dealias minimum up to the next even number and hope.  That
lands on sizes like 716 = 2^2 * 179, whose large prime cofactor wrecks
transform throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_RULE = Fraction(3, 2)
DEFAULT_PRIMES = (2, 3, 5, 7)


@dataclass(frozen=True)
class PaddedPlan:
    """One planned transform size.

    ``factors`` multiply to ``n_padded`` and all lie in the prime set the
    plan was built with; ``cost_score`` is the sum of the factors with
    multiplicity (a cheap work heuristic, reported for diagnostics).
    """

    n_logical: int
    n_min: int
    n_padded: int
    factors: tuple[int, ...]

    @property
    def cost_score(self) -> int:
        return cost_score(self.factors)

    def __post_init__(self):
        if not self.n_padded >= self.n_min >= self.n_logical >= 1:
            raise ValueError(
                f"need n_padded >= n_min >= n_logical >= 1, got "
                f"{self.n_padded}/{self.n_min}/{self.n_logical}"
            )
        if math.prod(self.factors) != self.n_padded:
            raise ValueError("factors do not multiply to n_padded")


def factorize(n: int) -> list[int]:
    """Prime factorization by trial division, nondecreasing, with multiplicity.

    factorize(1) is the empty list.  n < 1 raises ValueError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = []
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.append(d)
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def cost_score(factors) -> int:
    """Sum of prime factors with multiplicity; lower predicts faster at equal size."""
    return sum(factors)


def _as_rule(rule) -> Fraction:
    rule = Fraction(rule)
    if rule < 1:
        raise ValueError(f"dealias rule must be >= 1, got {rule}")
    return rule


def dealias_minimum(n_logical: int, rule=DEFAULT_RULE) -> int:
    """Smallest transform size free of aliased quadratic products: ceil(n * rule)."""
    if n_logical < 1:
        raise ValueError(f"n_logical must be >= 1, got {n_logical}")
    return math.ceil(n_logical * _as_rule(rule))


def _check_primes(allowed_primes) -> tuple[int, ...]:
    primes = tuple(sorted(set(int(p) for p in allowed_primes)))
    if not primes:
        raise ValueError("allowed_primes must be nonempty")
    for p in primes:
        if p < 2 or factorize(p) != [p]:
            raise ValueError(f"{p} is not prime")
    return primes


def _smooth_residue(n: int, primes) -> int:
    # 1 iff n factors entirely over the allowed set
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def plan_padded_size(n_logical: int, rule=DEFAULT_RULE, allowed_primes=DEFAULT_PRIMES) -> PaddedPlan:
    """Plan the smallest smooth transform size at or above the dealias minimum.

    Args:
        n_logical: retained spectral modes along this dimension.
        rule: exact rational dealias factor (default 3/2).
        allowed_primes: factor budget; must contain at least one prime.
            With 2 in the set a valid size always exists; without it the
            scan still terminates at the next pure power of the smallest
            allowed prime.

    Returns:
        PaddedPlan with the chosen size, its factorization, and cost score.
    """
    primes = _check_primes(allowed_primes)
    n_min = dealias_minimum(n_logical, rule)
    n = n_min
    while _smooth_residue(n, primes) != 1:
        n += 1
    return PaddedPlan(n_logical, n_min, n, tuple(factorize(n)))
