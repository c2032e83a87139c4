"""General finite-state Markov chain machinery in exact rational arithmetic.

Everything here works with :class:`fractions.Fraction` entries: matrix powers,
n-step distributions, irreducibility/periodicity/ergodicity checks, the
stationary-distribution solver, and convergence diagnostics are all exact.
There is no floating point, and therefore no tolerance, anywhere in this
module. All types are immutable values; all operations are pure functions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Sequence

from .rationals import as_exact

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

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown state label: {label!r}") from None


@dataclass(frozen=True)
class TransitionMatrix:
    """Square row-stochastic matrix with exact rational entries."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Sequence[Sequence[Fraction | int | str]]):
        converted = tuple(tuple(as_exact(entry) for entry in row) for row in rows)
        object.__setattr__(self, "rows", converted)
        k = len(converted)
        if k == 0:
            raise EmptyStateSpace("transition matrix must be at least 1x1")
        for i, row in enumerate(converted):
            if len(row) != k:
                raise DimensionMismatch(
                    f"row {i} has {len(row)} entries, expected {k} (matrix must be square)"
                )
            for j, entry in enumerate(row):
                if entry < 0 or entry > 1:
                    raise NonStochasticRow(
                        f"row {i}, column {j}: entry {entry} outside [0, 1]"
                    )
            total = sum(row, ZERO)
            if total != 1:
                raise NonStochasticRow(f"row {i} sums to {total}, expected 1")

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
        converted = tuple(as_exact(w) for w in weights)
        object.__setattr__(self, "weights", converted)
        if not converted:
            raise EmptyStateSpace("distribution must have at least one weight")
        for i, w in enumerate(converted):
            if w < 0 or w > 1:
                raise NonStochasticRow(f"weight {i}: {w} outside [0, 1]")
        total = sum(converted, ZERO)
        if total != 1:
            raise NonStochasticRow(f"weights sum to {total}, expected 1")

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


def _mat_mul(a: tuple[tuple[Fraction, ...], ...], b: tuple[tuple[Fraction, ...], ...]):
    cols = list(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in cols)
        for row in a
    )


def _vec_mat(v: tuple[Fraction, ...], m: tuple[tuple[Fraction, ...], ...]):
    cols = list(zip(*m))
    return tuple(sum((x * y for x, y in zip(v, col)), ZERO) for col in cols)


def _identity(k: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(k)) for i in range(k)
    )


def matrix_power(matrix: TransitionMatrix, n: int) -> TransitionMatrix:
    """Exact n-th matrix power; n = 0 gives the identity."""
    if n < 0:
        raise ValueError(f"matrix power needs n >= 0, got {n}")
    result = _identity(matrix.dimension)
    base = matrix.rows
    # Binary exponentiation; every intermediate stays exactly row-stochastic.
    while n > 0:
        if n & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        n >>= 1
    return TransitionMatrix(result)


def n_step_distribution(chain: Chain, n: int) -> DistributionVector:
    """Distribution after n steps: initial times the (n-1)-th matrix power."""
    if chain.initial is None:
        raise MissingInitialDistribution(
            "n-step distribution needs a chain with an initial distribution"
        )
    if n < 1:
        raise ValueError(f"step index must be >= 1, got {n}")
    weights = _vec_mat(chain.initial.weights, matrix_power(chain.matrix, n - 1).rows)
    return DistributionVector(weights)


def _adjacency(matrix: TransitionMatrix, reverse: bool = False) -> list[list[int]]:
    k = matrix.dimension
    adj: list[list[int]] = [[] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if matrix.rows[i][j] > 0:
                if reverse:
                    adj[j].append(i)
                else:
                    adj[i].append(j)
    return adj


def _reachable(adj: list[list[int]], start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def is_irreducible(matrix: TransitionMatrix) -> bool:
    """True iff the positive-entry digraph is strongly connected.

    Strong connectivity is checked with one forward and one backward
    traversal from state 0. For row-stochastic matrices this is equivalent
    to every pair of states communicating in some positive number of steps:
    every state in a strongly connected stochastic digraph lies on a cycle.
    """
    k = matrix.dimension
    if len(_reachable(_adjacency(matrix), 0)) != k:
        return False
    return len(_reachable(_adjacency(matrix, reverse=True), 0)) == k


def period(matrix: TransitionMatrix, state: int) -> int:
    """GCD of the lengths of all cycles through ``state``.

    Computed from a breadth-first level assignment over the positive-entry
    digraph: the period equals gcd of level(u) + 1 - level(v) over all edges
    (u, v), which for strongly connected graphs equals the gcd of all closed
    walk lengths through any fixed state.
    """
    if not is_irreducible(matrix):
        raise NotIrreducible("period is defined here only for irreducible matrices")
    k = matrix.dimension
    if not 0 <= state < k:
        raise ValueError(f"state index {state} out of range for {k} states")
    return _period(matrix, state)


def _period(matrix: TransitionMatrix, state: int) -> int:
    """:func:`period` of a matrix already known to be irreducible."""
    k = matrix.dimension
    adj = _adjacency(matrix)
    level = [-1] * k
    level[state] = 0
    queue = deque([state])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    g = 0
    for u in range(k):
        for v in adj[u]:
            g = gcd(g, level[u] + 1 - level[v])
    return g


def is_aperiodic(matrix: TransitionMatrix) -> bool:
    """True iff the (irreducible) matrix has period 1."""
    if not is_irreducible(matrix):
        raise NotIrreducible("aperiodicity is defined here only for irreducible matrices")
    return _period(matrix, 0) == 1


def is_ergodic(matrix: TransitionMatrix) -> bool:
    """True iff irreducible and aperiodic."""
    return is_irreducible(matrix) and _period(matrix, 0) == 1


def stationary_distribution(matrix: TransitionMatrix) -> DistributionVector:
    """The unique exact solution of pi P = pi with weights summing to 1.

    Refuses reducible matrices: without irreducibility the stationary set can
    contain more than one element and any single answer would be arbitrary.
    Irreducible-but-periodic matrices are accepted (uniqueness still holds).
    """
    if not is_irreducible(matrix):
        raise NotIrreducible("stationary distribution is unique only for irreducible matrices")
    return _stationary(matrix)


def _stationary(matrix: TransitionMatrix) -> DistributionVector:
    """:func:`stationary_distribution` of a matrix already known to be irreducible."""
    k = matrix.dimension
    # Equations indexed by column j: sum_i pi_i (P[i][j] - [i == j]) = 0.
    # The k equations are linearly dependent (rows of P - I sum to zero), so
    # replacing any one with the normalization sum pi_i = 1 gives a
    # nonsingular system; we replace the last.
    rows = [
        [matrix.rows[i][j] - (ONE if i == j else ZERO) for i in range(k)] + [ZERO]
        for j in range(k - 1)
    ]
    rows.append([ONE] * k + [ONE])
    return DistributionVector(_solve_exact(rows))


def _solve_exact(augmented: list[list[Fraction]]) -> list[Fraction]:
    """Gaussian elimination over Fractions on an n x (n+1) augmented system."""
    n = len(augmented)
    for col in range(n):
        pivot = next((r for r in range(col, n) if augmented[r][col] != 0), None)
        if pivot is None:
            raise MarkovError("singular system in exact solver")
        augmented[col], augmented[pivot] = augmented[pivot], augmented[col]
        pivot_row = augmented[col]
        inv = ONE / pivot_row[col]
        augmented[col] = [x * inv for x in pivot_row]
        for r in range(n):
            if r != col and augmented[r][col] != 0:
                factor = augmented[r][col]
                augmented[r] = [
                    x - factor * y for x, y in zip(augmented[r], augmented[col])
                ]
    return [augmented[r][n] for r in range(n)]


def total_variation_distance(p: DistributionVector, q: DistributionVector) -> Fraction:
    """Half the L1 distance between two distributions, exact."""
    if len(p) != len(q):
        raise DimensionMismatch(
            f"distributions have lengths {len(p)} and {len(q)}"
        )
    return sum((abs(a - b) for a, b in zip(p.weights, q.weights)), ZERO) / 2


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
    if not is_irreducible(matrix):
        return ErgodicityReport(irreducible=False, period=None, stationary=None)
    return ErgodicityReport(
        irreducible=True, period=_period(matrix, 0), stationary=_stationary(matrix)
    )


def convergence_report(chain: Chain, n_max: int) -> list[ConvergenceRow]:
    """Exact n-step distributions and their distances to the stationary one.

    One row per n in 1..n_max. Requires an ergodic matrix (so the stationary
    distribution is the limit) and an initial distribution to start from.
    """
    if not is_ergodic(chain.matrix):
        raise NotErgodic("convergence report requires an ergodic transition matrix")
    if chain.initial is None:
        raise MissingInitialDistribution("convergence report needs an initial distribution")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    pi = _stationary(chain.matrix)
    rows = []
    current = chain.initial
    for n in range(1, n_max + 1):
        rows.append(
            ConvergenceRow(n, current, total_variation_distance(current, pi))
        )
        if n < n_max:
            current = DistributionVector(_vec_mat(current.weights, chain.matrix.rows))
    return rows
