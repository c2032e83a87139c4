"""Plain Fraction reference for the exact core's integer kernel.

These are the routines ``markov_core`` ran before its products, solves,
stochastic checks and distances moved onto integer numerators over a common
denominator: Fraction matrix products, binary powering, Gauss-Jordan
elimination over Fractions, the Fraction-sum row check and the Fraction TV
distance. Tests compare the kernel with them for exact equality. Not
collected by pytest (no ``test_`` prefix).
"""

from fractions import Fraction

from sbchain.markov_core import DimensionMismatch, NonStochasticRow
from sbchain.rationals import as_exact

ZERO = Fraction(0)
ONE = Fraction(1)


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in cols) for row in a
    )


def times_power(rows, base, n):
    """``rows`` times ``base`` to the n, with None standing for the identity."""
    while True:
        if n & 1:
            rows = base if rows is None else mat_mul(rows, base)
        n >>= 1
        if not n:
            return rows
        base = mat_mul(base, base)


def matrix_power(rows, n):
    k = len(rows)
    if n == 0:
        return tuple(tuple(ONE if i == j else ZERO for j in range(k)) for i in range(k))
    return times_power(None, tuple(rows), n)


def n_step_distribution(rows, initial, n):
    (weights,) = times_power((tuple(initial),), tuple(rows), n - 1)
    return weights


def solve_exact(augmented):
    """Gaussian elimination over Fractions on an n x (n+1) augmented system."""
    n = len(augmented)
    for col in range(n):
        pivot = next((r for r in range(col, n) if augmented[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system in exact solver")
        augmented[col], augmented[pivot] = augmented[pivot], augmented[col]
        pivot_row = augmented[col]
        inv = ONE / pivot_row[col]
        augmented[col] = [x * inv for x in pivot_row]
        for r in range(n):
            if r != col and augmented[r][col] != 0:
                factor = augmented[r][col]
                augmented[r] = [x - factor * y for x, y in zip(augmented[r], augmented[col])]
    return [augmented[r][n] for r in range(n)]


def stationary(rows):
    """pi (P - I) = 0 with the last equation replaced by sum pi_i = 1."""
    k = len(rows)
    system = [
        [rows[i][j] - (ONE if i == j else ZERO) for i in range(k)] + [ZERO]
        for j in range(k - 1)
    ]
    system.append([ONE] * k + [ONE])
    return solve_exact(system)


def convergence(rows, initial, n_max):
    """``(distribution, TV distance to stationary)`` for n in 1..n_max."""
    pi = stationary(rows)
    out = []
    current = tuple(initial)
    for n in range(1, n_max + 1):
        out.append((current, sum((abs(a - b) for a, b in zip(current, pi)), ZERO) / 2))
        if n < n_max:
            (current,) = mat_mul((current,), rows)
    return out


def stochastic(values, name):
    """``values`` as Fractions, checked entry by entry and summed as Fractions."""
    converted = tuple(as_exact(v) for v in values)
    for j, v in enumerate(converted):
        if v < 0 or v > 1:
            raise NonStochasticRow(f"{name}, entry {j}: {v} outside [0, 1]")
    total = sum(converted, ZERO)
    if total != 1:
        raise NonStochasticRow(f"{name} sums to {total}, expected 1")
    return converted


def total_variation_distance(p, q):
    """Half the L1 distance between two DistributionVectors, over Fractions."""
    if len(p) != len(q):
        raise DimensionMismatch(f"distributions have lengths {len(p)} and {len(q)}")
    return sum((abs(a - b) for a, b in zip(p.weights, q.weights)), ZERO) / 2
