"""General finite-state Markov chain machinery in exact rational arithmetic.

Every value at the API is an exact :class:`fractions.Fraction`: matrix powers,
n-step distributions, irreducibility/periodicity/ergodicity checks, the
stationary-distribution solver, and convergence diagnostics are all exact.
Products and solves run on integer numerators over one common denominator:
P^n = (D P)^n / D^n, and the stationary law comes from fraction-free
(Bareiss) elimination. There is no floating point, and therefore no
tolerance, anywhere in this module. All types are immutable values; all
operations are pure functions.

Each decision has one path: ``_scaled`` is the only place Fractions become
integers, ``_stochastic`` checks every row and distribution (on integer
numerators over the lcm of the denominators), ``_times_power`` does all
binary powering (squaring only while bits of n remain; n-step distributions
power the initial row, never P^(n-1)), ``_tv`` computes every total-variation
distance on integer numerators, and ``_structure`` decides irreducibility and
the period in one pass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .rationals import _decimal, as_exact, format_rational, require_int

__all__ = [
    "Chain", "ConvergenceRow", "DimensionMismatch", "DistributionVector",
    "DuplicateState", "EmptyStateSpace", "ErgodicityReport", "MarkovError",
    "MissingInitialDistribution", "NonStochasticRow", "NotErgodic", "NotIrreducible",
    "StateSpace", "TransitionMatrix", "convergence_report", "ergodicity_report",
    "expectation", "is_aperiodic", "is_ergodic", "is_irreducible", "matrix_power",
    "n_step_distribution", "new_chain", "period", "stationary_distribution",
    "total_variation_distance",
]

ZERO = Fraction(0)
ONE = Fraction(1)


class MarkovError(ValueError):
    """Base class for chain construction and precondition errors."""


class EmptyStateSpace(MarkovError):
    """State space must contain at least one state."""


class DuplicateState(MarkovError):
    """State labels must be unique."""


class DimensionMismatch(MarkovError):
    """Matrix/vector dimensions do not agree."""


class NonStochasticRow(MarkovError):
    """A matrix row has an entry outside [0, 1] or does not sum to 1."""


class MissingInitialDistribution(MarkovError):
    """Operation needs a chain with an initial distribution."""


class NotIrreducible(MarkovError):
    """Operation is only defined for irreducible transition matrices."""


class NotErgodic(MarkovError):
    """Operation is only defined for ergodic transition matrices."""


@dataclass(frozen=True)
class StateSpace:
    """Ordered, unique state labels; indices are positions in ``labels``."""

    labels: tuple[str, ...]

    def __init__(self, labels: Sequence[str]):
        object.__setattr__(self, "labels", tuple(labels))
        if not self.labels:
            raise EmptyStateSpace("state space must contain at least one state")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateState(f"duplicate state labels in {self.labels}")

    @property
    def size(self) -> int:
        return len(self.labels)


def _stochastic(values: Sequence[Fraction | int | str], name: str) -> tuple[Fraction, ...]:
    """``values`` as exact Fractions, checked to lie in [0, 1] and sum to 1.

    ``name`` ("row 2", "distribution") leads every error message.
    """
    converted = tuple(as_exact(v) for v in values)
    for j, v in enumerate(converted):
        if not 0 <= v.numerator <= v.denominator:
            raise NonStochasticRow(f"{name}, entry {j}: {format_rational(v)} outside [0, 1]")
    (numerators,), d = _scaled((converted,))
    total = sum(numerators)
    if total != d:
        raise NonStochasticRow(f"{name} sums to {format_rational(Fraction(total, d))}, expected 1")
    return converted


@dataclass(frozen=True)
class TransitionMatrix:
    """Square row-stochastic matrix with exact rational entries."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Sequence[Sequence[Fraction | int | str]]):
        k = len(rows)
        if k == 0:
            raise EmptyStateSpace("transition matrix must be at least 1x1")
        checked = []
        for i, row in enumerate(rows):
            if len(row) != k:
                raise DimensionMismatch(
                    f"row {i} has {len(row)} entries, expected {k} (matrix must be square)"
                )
            checked.append(_stochastic(row, f"row {i}"))
        object.__setattr__(self, "rows", tuple(checked))

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]


@dataclass(frozen=True)
class DistributionVector:
    """Stochastic row vector: exact weights in [0, 1] summing to 1."""

    weights: tuple[Fraction, ...]

    def __init__(self, weights: Sequence[Fraction | int | str]):
        if len(weights) == 0:
            raise EmptyStateSpace("distribution must have at least one weight")
        object.__setattr__(self, "weights", _stochastic(weights, "distribution"))

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        return self.weights[i]


@dataclass(frozen=True)
class Chain:
    """A state space, a transition matrix, and an optional initial distribution."""

    states: StateSpace
    matrix: TransitionMatrix
    initial: DistributionVector | None = None

    def __post_init__(self):
        if self.matrix.dimension != self.states.size:
            raise DimensionMismatch(
                f"matrix is {self.matrix.dimension}x{self.matrix.dimension} "
                f"but state space has {self.states.size} states"
            )
        if self.initial is not None and len(self.initial) != self.states.size:
            raise DimensionMismatch(
                f"initial distribution has {len(self.initial)} weights "
                f"but state space has {self.states.size} states"
            )


@dataclass(frozen=True)
class ErgodicityReport:
    """Structural summary of a transition matrix.

    ``period`` and ``stationary`` are present exactly when the matrix is
    irreducible: only then is the period the same for every state and the
    stationary distribution unique.
    """

    irreducible: bool
    period: int | None
    stationary: DistributionVector | None

    def __post_init__(self):
        if not self.irreducible == (self.period is not None) == (self.stationary is not None):
            raise MarkovError("period and stationary distribution present iff irreducible")

    @property
    def aperiodic(self) -> bool:
        return self.period == 1

    @property
    def ergodic(self) -> bool:
        return self.irreducible and self.aperiodic


class ConvergenceRow(NamedTuple):
    n: int
    distribution: DistributionVector
    distance: Fraction


def new_chain(
    states: StateSpace | Sequence[str],
    grid: Sequence[Sequence[Fraction | int | str]],
    initial: Sequence[Fraction | int | str] | None = None,
) -> Chain:
    """Build a validated Chain from labels, a rational grid, and optional weights."""
    space = states if isinstance(states, StateSpace) else StateSpace(states)
    matrix = TransitionMatrix(grid)
    dist = DistributionVector(initial) if initial is not None else None
    return Chain(states=space, matrix=matrix, initial=dist)


def _scaled(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """``(A, D)``: D is the lcm of all denominators in ``rows``, and A = D * rows."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _int_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _times_power(rows, base: list[list[int]], n: int):
    """``rows`` times ``base`` to the n, with None standing for the identity.

    Binary powering from the low bit: the base is squared only while higher
    bits of n remain, so every product computed is used.
    """
    while True:
        if n & 1:
            rows = base if rows is None else _int_mul(rows, base)
        n >>= 1
        if not n:
            return rows
        base = _int_mul(base, base)


def matrix_power(matrix: TransitionMatrix, n: int) -> TransitionMatrix:
    """Exact n-th matrix power; n = 0 gives the identity."""
    require_int("n", n)
    if n < 0:
        raise ValueError(f"matrix power needs n >= 0, got {_decimal(n)}")
    k = matrix.dimension
    if n == 0:
        return TransitionMatrix([[ONE if i == j else ZERO for j in range(k)] for i in range(k)])
    a, d = _scaled(matrix.rows)
    den = d**n
    return TransitionMatrix([[Fraction(x, den) for x in row] for row in _times_power(None, a, n)])


def n_step_distribution(chain: Chain, n: int) -> DistributionVector:
    """Distribution after n steps: initial times the (n-1)-th matrix power.

    The initial row is carried through the powering as a 1 x k matrix, so
    P^(n-1) itself is never formed.
    """
    if chain.initial is None:
        raise MissingInitialDistribution(
            "n-step distribution needs a chain with an initial distribution"
        )
    require_int("n", n)
    if n < 1:
        raise ValueError(f"step index must be >= 1, got {_decimal(n)}")
    a, d = _scaled(chain.matrix.rows)
    w, d0 = _scaled((chain.initial.weights,))
    (weights,) = _times_power(w, a, n - 1)
    den = d0 * d ** (n - 1)
    return DistributionVector([Fraction(x, den) for x in weights])


def _structure(matrix: TransitionMatrix) -> int | None:
    """The period of ``matrix``, or None if it is reducible.

    Breadth-first passes from state 0, backward and then forward, decide
    strong connectivity of the positive-entry digraph: for a stochastic
    matrix, every pair of states then communicates in some positive number
    of steps. The period is the gcd of level(u) + 1 - level(v) over the
    edges (u, v), with the forward levels; for a strongly connected graph
    that is the gcd of the closed walk lengths through any state.
    """
    k = matrix.dimension
    succ = [[v for v, p in enumerate(row) if p > 0] for row in matrix.rows]
    pred = [[u for u in range(k) if matrix.rows[u][v] > 0] for v in range(k)]
    for adj in (pred, succ):
        level = [-1] * k
        level[0] = 0
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if -1 in level:
            return None
    return gcd(*(level[u] + 1 - level[v] for u in range(k) for v in succ[u]))


def _irreducible_period(matrix: TransitionMatrix, message: str) -> int:
    """The period of ``matrix``; raises NotIrreducible with ``message`` if it is reducible."""
    p = _structure(matrix)
    if p is None:
        raise NotIrreducible(message)
    return p


def is_irreducible(matrix: TransitionMatrix) -> bool:
    """True iff the positive-entry digraph is strongly connected."""
    return _structure(matrix) is not None


def period(matrix: TransitionMatrix, state: int) -> int:
    """GCD of the lengths of all cycles through ``state``.

    Defined here only for irreducible matrices, where the period is the same
    for every state: irreducibility is checked first, then the state index.
    """
    p = _irreducible_period(matrix, "period is defined here only for irreducible matrices")
    require_int("state", state)
    k = matrix.dimension
    if not 0 <= state < k:
        raise ValueError(f"state index {_decimal(state)} out of range for {k} states")
    return p


def is_aperiodic(matrix: TransitionMatrix) -> bool:
    """True iff the (irreducible) matrix has period 1."""
    return _irreducible_period(
        matrix, "aperiodicity is defined here only for irreducible matrices"
    ) == 1


def is_ergodic(matrix: TransitionMatrix) -> bool:
    """True iff irreducible and aperiodic."""
    return _structure(matrix) == 1


def stationary_distribution(matrix: TransitionMatrix) -> DistributionVector:
    """The unique exact solution of pi P = pi with weights summing to 1.

    Refuses reducible matrices: without irreducibility the stationary set can
    contain more than one element and any single answer would be arbitrary.
    Irreducible-but-periodic matrices are accepted (uniqueness still holds).
    """
    _irreducible_period(
        matrix, "stationary distribution is unique only for irreducible matrices"
    )
    return _stationary(matrix)


def _stationary(matrix: TransitionMatrix) -> DistributionVector:
    """:func:`stationary_distribution` of a matrix already known to be irreducible."""
    k = matrix.dimension
    a, d = _scaled(matrix.rows)
    # Equations indexed by column j: sum_i pi_i (A[i][j] - D [i == j]) = 0.
    # The k equations are linearly dependent (rows of P - I sum to zero), so
    # replacing any one with the normalization sum pi_i = 1 gives a
    # nonsingular system; we replace the last.
    system = [[a[i][j] - (d if i == j else 0) for i in range(k)] + [0] for j in range(k - 1)]
    system.append([1] * (k + 1))
    # Fraction-free Gauss-Jordan (Bareiss): every entry stays a minor of the
    # system, so each division by the previous pivot is exact, and at the
    # end every diagonal entry equals the last pivot, the determinant (up to
    # the sign of the row swaps).
    previous = 1
    for c in range(k):
        p = next((r for r in range(c, k) if system[r][c] != 0), None)
        if p is None:
            raise MarkovError("singular system in exact solver")
        system[c], system[p] = system[p], system[c]
        pivot_row = system[c]
        pivot = pivot_row[c]
        for r, row in enumerate(system):
            if r != c:
                f = row[c]
                system[r] = [(pivot * x - f * y) // previous for x, y in zip(row, pivot_row)]
        previous = pivot
    return DistributionVector([Fraction(row[k], previous) for row in system])


def _tv(x: Sequence[int], d: int, p: Sequence[int], q: int) -> Fraction:
    """Total variation distance between x/d and p/q: sum |x_i q - p_i d| / (2 d q)."""
    return Fraction(sum(abs(a * q - b * d) for a, b in zip(x, p)), 2 * d * q)


def total_variation_distance(p: DistributionVector, q: DistributionVector) -> Fraction:
    """Half the L1 distance between two distributions, exact."""
    if len(p) != len(q):
        raise DimensionMismatch(
            f"distributions have lengths {len(p)} and {len(q)}"
        )
    (x,), d = _scaled((p.weights,))
    (y,), e = _scaled((q.weights,))
    return _tv(x, d, y, e)


def expectation(
    values: Sequence[Fraction | int | str], pi: DistributionVector
) -> Fraction:
    """Exact weighted sum of per-state values under ``pi``.

    ``values`` holds f evaluated at every state, in state order.
    """
    if len(values) != len(pi):
        raise DimensionMismatch(
            f"function defined on {len(values)} states, distribution has {len(pi)}"
        )
    return sum(
        (as_exact(v) * w for v, w in zip(values, pi.weights)), ZERO
    )


def ergodicity_report(matrix: TransitionMatrix) -> ErgodicityReport:
    """Full structural summary: irreducibility, period, ergodicity, stationary."""
    p = _structure(matrix)
    if p is None:
        return ErgodicityReport(irreducible=False, period=None, stationary=None)
    return ErgodicityReport(irreducible=True, period=p, stationary=_stationary(matrix))


def convergence_report(chain: Chain, n_max: int) -> list[ConvergenceRow]:
    """Exact n-step distributions and their distances to the stationary one.

    One row per n in 1..n_max. Requires an ergodic matrix (so the stationary
    distribution is the limit) and an initial distribution to start from.
    """
    return list(_convergence_rows(chain, n_max))


def _convergence_rows(chain: Chain, n_max: int) -> Iterator[ConvergenceRow]:
    """The rows of :func:`convergence_report`, one at a time; every check runs
    before the first, so a caller writing rows as they come writes none."""
    if _structure(chain.matrix) != 1:
        raise NotErgodic("convergence report requires an ergodic transition matrix")
    if chain.initial is None:
        raise MissingInitialDistribution("convergence report needs an initial distribution")
    require_int("n_max", n_max, 1)
    (p,), q = _scaled((_stationary(chain.matrix).weights,))
    a, d = _scaled(chain.matrix.rows)
    (w,), den = _scaled((chain.initial.weights,))
    yield ConvergenceRow(1, chain.initial, _tv(w, den, p, q))
    for n in range(2, n_max + 1):
        (w,) = _int_mul((w,), a)
        den *= d
        current = DistributionVector([Fraction(x, den) for x in w])
        yield ConvergenceRow(n, current, _tv(w, den, p, q))
