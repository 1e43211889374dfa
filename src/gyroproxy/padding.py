"""Dealiasing-padded FFT size planning.

Mixed-radix FFTs are fast when the transform size factors into small
primes and slow when a large prime shows up.  Dealiasing a quadratic
nonlinearity forces the padded size to at least :data:`DEALIAS_RULE`, 3/2,
of the retained mode count on every platform, but any size at or above
that bound is correct, so the planner picks the smallest one whose factors
stay inside an allowed prime set: the input that differs between FFT
libraries, since each runs its own radices fast.

``oracles.naive_padded_size`` models the flawed scheme this replaces:
round the dealias minimum up to the next even number and hope.  That
lands on sizes like 716 = 2^2 * 179, whose large prime cofactor wrecks
transform throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

DEALIAS_RULE = Fraction(3, 2)
DEFAULT_PRIMES = (2, 3, 5, 7)


@dataclass(frozen=True)
class PaddedPlan:
    """One planned transform size.

    ``factors`` multiply to ``n_padded`` and all lie in the prime set the
    plan was built with; ``cost_score`` is the sum of the factors with
    multiplicity, a cheap work heuristic reported for diagnostics: lower
    predicts faster at equal size.
    """

    n_logical: int
    n_min: int
    n_padded: int
    factors: tuple[int, ...]

    @property
    def cost_score(self) -> int:
        return sum(self.factors)

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


def dealias_minimum(n_logical: int) -> int:
    """Smallest transform size free of aliased quadratic products: ceil(n * 3/2)."""
    if n_logical < 1:
        raise ValueError(f"n_logical must be >= 1, got {n_logical}")
    return math.ceil(n_logical * DEALIAS_RULE)


def _check_primes(allowed_primes) -> tuple[int, ...]:
    primes = tuple(sorted(set(int(p) for p in allowed_primes)))
    if not primes:
        raise ValueError("allowed_primes must be nonempty")
    for p in primes:
        if p < 2 or factorize(p) != [p]:
            raise ValueError(f"{p} is not prime")
    return primes


def plan_padded_size(n_logical: int, allowed_primes=DEFAULT_PRIMES) -> PaddedPlan:
    """Plan the smallest smooth transform size at or above the dealias minimum.

    Args:
        n_logical: retained spectral modes along this dimension.
        allowed_primes: factor budget; must contain at least one prime.
            A size always exists: at worst the next pure power of the
            smallest allowed prime.

    Returns:
        PaddedPlan with the chosen size, its factorization, and cost score.
    """
    low, *rest = _check_primes(allowed_primes)
    n_min = dealias_minimum(n_logical)
    # Each product of the primes above the smallest, made up to n_min with
    # powers of the smallest.  None at or past the smallest prime's own power
    # can win, which leaves a few thousand products even at n_min = 10**18.
    best = 1
    while best < n_min:
        best *= low
    products = [1]
    for p in rest:
        grown = []
        for m in products:
            while m < best:
                grown.append(m)
                m *= p
        products = grown
    for m in products:
        while m < n_min:
            m *= low
        best = min(best, m)
    return PaddedPlan(n_logical, n_min, best, tuple(factorize(best)))
