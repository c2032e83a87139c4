"""Exact finite-n mean of the thirder statistic, in stdlib Fractions.

After n experiments the Heads count H is Binomial(n, 1/2), and the thirder
statistic H / (2n - H) is the Heads share of the 2n - H awakenings. It is
convex in H, so by Jensen's inequality its mean lies above 1/3 for every n.
The delta method (van der Vaart, *Asymptotic Statistics*, ch. 3) gives
n·(E - 1/3) -> g''(1/2)·Var(H/n)·n/2 = 4/27 for g(x) = x / (2 - x). Not
collected by pytest (no ``test_`` prefix).
"""

from fractions import Fraction
from math import comb


def mean_thirder(n):
    """E[H / (2n - H)] for H ~ Binomial(n, 1/2), exactly."""
    return sum(Fraction(comb(n, h) * h, 2 * n - h) for h in range(n + 1)) / 2**n
