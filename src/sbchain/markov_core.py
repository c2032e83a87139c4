"""General finite-state Markov chain machinery in exact rational arithmetic.

Every value at the API is an exact :class:`fractions.Fraction`: matrix powers,
n-step distributions, irreducibility/periodicity/ergodicity checks, the
stationary-distribution solver, and convergence diagnostics are all exact.
Products and solves run on integer numerators over one common denominator:
P^n = (D P)^n / D^n, and the stationary law comes from fraction-free
(Bareiss) elimination. There is no floating point, and therefore no
tolerance, anywhere in this module. All types are immutable values; all
operations are pure functions. A TransitionMatrix works out what its rows
imply once, on first use, and keeps it: the integer rows, the period (None if
reducible) and the stationary law. Equality, hashing and repr still read only
``rows``.

Each decision has one path: ``_scaled`` is the only place Fractions become
integers; ``_stochastic`` checks every row and distribution a caller hands
in (on integer numerators over the lcm of the denominators), and ``_trusted``
builds, unchecked, the laws that exact arithmetic derives from checked ones;
``_times_power`` does all binary powering (squaring only while bits of n
remain) and ``_walk`` all stepping of a row, and an n-step distribution takes
whichever of the two makes fewer products, never forming P^(n-1); ``_tv``
computes every total-variation distance on integer numerators; and
``_structure`` decides irreducibility and the period in one pass.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice, repeat
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .rationals import _decimal, _required, _shown, as_exact, format_rational, require_int

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
    """Ordered, unique state labels; indices are positions in ``labels``.

    ``labels`` is an iterable of strings, as a chain spec's "states" are;
    MarkovError for anything else.
    """

    labels: tuple[str, ...]

    def __init__(self, labels: Iterable[str]):
        object.__setattr__(self, "labels", tuple(labels) if isinstance(labels, Iterable) else (labels,))
        if not all(isinstance(label, str) for label in self.labels):
            raise MarkovError(f"state labels must be an iterable of strings, got {_shown(labels)}")
        if not self.labels:
            raise EmptyStateSpace("state space must contain at least one state")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateState(f"duplicate state labels in {self.labels}")

    @property
    def size(self) -> int:
        return len(self.labels)


def _length(values, name: str):
    """The length of ``values``, if it is a list, a tuple or another Sequence
    that is not text; ``name`` ("row 2", "distribution") leads the error
    otherwise."""
    if isinstance(values, (str, bytes, bytearray)) or not isinstance(values, Sequence):
        raise MarkovError(f"{name} must be a list or tuple, got {type(values).__name__}")
    return len(values)


def _stochastic(values: Sequence[Fraction | int | str], name: str) -> tuple[Fraction, ...]:
    """``values`` as exact Fractions, checked to lie in [0, 1] and sum to 1.

    ``name`` ("row 2", "distribution") leads every error message.
    """
    converted = tuple(map(as_exact, values))
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
        k = _length(rows, "transition matrix")
        if k == 0:
            raise EmptyStateSpace("transition matrix must be at least 1x1")
        checked = []
        for i, row in enumerate(rows):
            if _length(row, f"row {i}") != k:
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

    # Facts of ``rows``, each worked out on first use and kept in the instance
    # ``__dict__`` (so on ``_trusted`` matrices too); no field, so ``==``,
    # ``hash`` and ``repr`` do not see them.
    @cached_property
    def _ints(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """``(A, D)`` of ``_scaled``: D is the lcm of the denominators, A = D * rows."""
        return _scaled(self.rows)

    @cached_property
    def _period(self) -> int | None:
        """The period from ``_structure``, or None if the matrix is reducible."""
        return _structure(self)

    @cached_property
    def _law(self) -> DistributionVector:
        """The stationary law; raises NotIrreducible, each time, if reducible."""
        if self._period is None:
            raise NotIrreducible("stationary distribution is unique only for irreducible matrices")
        return _stationary(self)


@dataclass(frozen=True)
class DistributionVector:
    """Stochastic row vector: exact weights in [0, 1] summing to 1."""

    weights: tuple[Fraction, ...]

    def __init__(self, weights: Sequence[Fraction | int | str]):
        if _length(weights, "distribution") == 0:
            raise EmptyStateSpace("distribution must have at least one weight")
        object.__setattr__(self, "weights", _stochastic(weights, "distribution"))

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        return self.weights[i]


def _trusted(cls, values):
    """A ``cls`` holding ``values`` unchecked: a tuple of Fractions, or of row
    tuples, that exact arithmetic on checked laws has made stochastic."""
    law = object.__new__(cls)
    object.__setattr__(law, *cls.__dataclass_fields__, values)  # its only field
    return law


def _over(numerators, den):
    """The law numerators / den, which exact arithmetic made stochastic."""
    return _trusted(DistributionVector, tuple(map(Fraction, numerators, repeat(den))))


@dataclass(frozen=True)
class Chain:
    """A state space, a transition matrix, and an optional initial distribution."""

    states: StateSpace
    matrix: TransitionMatrix
    initial: DistributionVector | None = None

    def __post_init__(self):
        _required("states", StateSpace, self.states)
        _required("matrix", TransitionMatrix, self.matrix)
        if self.initial is not None:
            _required("initial", DistributionVector, self.initial)
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


def _scaled(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``(A, D)``: D is the lcm of all denominators in ``rows``, and A = D * rows."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple([x.numerator * (d // x.denominator) for x in row]) for row in rows), d


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


def _walk(w, a):
    """The integer row ``w``, then w A, w A^2, ...: one 1 x k product a step."""
    while True:
        yield w
        (w,) = _int_mul((w,), a)


def matrix_power(matrix: TransitionMatrix, n: int) -> TransitionMatrix:
    """Exact n-th matrix power; n = 0 gives the identity."""
    require_int("n", n)
    if n < 0:
        raise ValueError(f"matrix power needs n >= 0, got {_decimal(n)}")
    k = _required("matrix", TransitionMatrix, matrix).dimension
    a, d = matrix._ints
    rows = _times_power(None, a, n) if n else [[int(i == j) for j in range(k)] for i in range(k)]
    den = d**n
    return _trusted(TransitionMatrix, tuple(tuple(map(Fraction, row, repeat(den))) for row in rows))


def n_step_distribution(chain: Chain, n: int) -> DistributionVector:
    """Distribution after n steps: initial times the (n-1)-th matrix power.

    Of two paths, the one with fewer scalar products runs: m = n - 1 steps
    of the initial row (m k^2), or binary powering with the row carried as a
    1 x k matrix (a k^3 squaring per bit of m past the first, and a k^2
    product per set bit); ties step. P^(n-1) itself is never formed.
    """
    if _required("chain", Chain, chain).initial is None:
        raise MissingInitialDistribution(
            "n-step distribution needs a chain with an initial distribution"
        )
    require_int("n", n)
    if n < 1:
        raise ValueError(f"step index must be >= 1, got {_decimal(n)}")
    a, d = chain.matrix._ints
    (w,), d0 = _scaled((chain.initial.weights,))
    m = n - 1
    if m <= (m.bit_length() - 1) * len(a) + m.bit_count():
        w = next(islice(_walk(w, a), m, None))
    else:
        (w,) = _times_power([w], a, m)
    return _over(w, d0 * d**m)


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
    # Entries lie in [0, 1], so the nonzero ones are the positive ones.
    succ = [[v for v, p in enumerate(row) if p] for row in matrix.rows]
    pred = [[u for u, heads in enumerate(succ) if v in heads] for v in range(k)]
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


def is_irreducible(matrix: TransitionMatrix) -> bool:
    """True iff the positive-entry digraph is strongly connected."""
    return _required("matrix", TransitionMatrix, matrix)._period is not None


def period(matrix: TransitionMatrix, state: int) -> int:
    """GCD of the lengths of all cycles through ``state``.

    Defined here only for irreducible matrices, where the period is the same
    for every state: irreducibility is checked first, then the state index.
    """
    p = _required("matrix", TransitionMatrix, matrix)._period
    if p is None:
        raise NotIrreducible("period is defined here only for irreducible matrices")
    require_int("state", state)
    k = matrix.dimension
    if not 0 <= state < k:
        raise ValueError(f"state index {_decimal(state)} out of range for {k} states")
    return p


def is_aperiodic(matrix: TransitionMatrix) -> bool:
    """True iff the (irreducible) matrix has period 1."""
    if _required("matrix", TransitionMatrix, matrix)._period is None:
        raise NotIrreducible("aperiodicity is defined here only for irreducible matrices")
    return matrix._period == 1


def is_ergodic(matrix: TransitionMatrix) -> bool:
    """True iff irreducible and aperiodic."""
    return _required("matrix", TransitionMatrix, matrix)._period == 1


def stationary_distribution(matrix: TransitionMatrix) -> DistributionVector:
    """The unique exact solution of pi P = pi with weights summing to 1.

    Refuses reducible matrices: without irreducibility the stationary set can
    contain more than one element and any single answer would be arbitrary.
    Irreducible-but-periodic matrices are accepted (uniqueness still holds).
    """
    return _required("matrix", TransitionMatrix, matrix)._law


def _stationary(matrix: TransitionMatrix) -> DistributionVector:
    """:func:`stationary_distribution` of a matrix already known to be irreducible."""
    k = matrix.dimension
    a, d = matrix._ints
    # Equations indexed by column j: sum_i pi_i (A[i][j] - D [i == j]) = 0.
    # The k equations are linearly dependent (rows of P - I sum to zero), so
    # replacing any one with the normalization sum pi_i = 1 gives a
    # nonsingular system; we replace the last.
    system = [[a[i][j] - (d if i == j else 0) for i in range(k)] + [0] for j in range(k - 1)]
    system.append([1] * (k + 1))
    # Fraction-free elimination below each pivot (Bareiss): every entry stays
    # a minor of the system, so each division by the previous pivot is exact,
    # and the last pivot D is the determinant (up to the sign of the row
    # swaps). Back substitution then solves for y = D pi, which Cramer's rule
    # makes integer, so its divisions are exact too.
    previous = 1
    for c in range(k):
        p = next((r for r in range(c, k) if system[r][c] != 0), None)
        if p is None:
            raise MarkovError("singular system in exact solver")
        system[c], system[p] = system[p], system[c]
        pivot_row = system[c]
        pivot = pivot_row[c]
        for r in range(c + 1, k):
            f = system[r][c]
            system[r] = [(pivot * x - f * y) // previous for x, y in zip(system[r], pivot_row)]
        previous = pivot
    y = [0] * k
    for i in reversed(range(k)):
        row = system[i]
        y[i] = (previous * row[k] - sum(map(mul, row[i + 1 : k], y[i + 1 :]))) // row[i]
    return _over(y, previous)


def _tv(x: Sequence[int], d: int, p: Sequence[int], q: int) -> Fraction:
    """Total variation distance between x/d and p/q: sum |x_i q - p_i d| / (2 d q)."""
    return Fraction(sum(abs(a * q - b * d) for a, b in zip(x, p)), 2 * d * q)


def total_variation_distance(p: DistributionVector, q: DistributionVector) -> Fraction:
    """Half the L1 distance between two distributions, exact."""
    if len(_required("p", DistributionVector, p)) != len(_required("q", DistributionVector, q)):
        raise DimensionMismatch(
            f"distributions have lengths {len(p)} and {len(q)}"
        )
    (x,), d = _scaled((p.weights,))
    (y,), e = _scaled((q.weights,))
    return _tv(x, d, y, e)


def expectation(values: Sequence[Fraction | int | str], pi: DistributionVector) -> Fraction:
    """Exact weighted sum of per-state values under ``pi``.

    ``values`` holds f evaluated at every state, in state order, as a list or
    tuple; anything else raises MarkovError.
    """
    if _length(values, "function values") != len(_required("pi", DistributionVector, pi)):
        raise DimensionMismatch(
            f"function defined on {len(values)} states, distribution has {len(pi)}"
        )
    return sum((as_exact(v) * w for v, w in zip(values, pi.weights)), ZERO)


def ergodicity_report(matrix: TransitionMatrix) -> ErgodicityReport:
    """Full structural summary: irreducibility, period, ergodicity, stationary."""
    p = _required("matrix", TransitionMatrix, matrix)._period
    return ErgodicityReport(p is not None, p, None if p is None else matrix._law)


def convergence_report(chain: Chain, n_max: int) -> list[ConvergenceRow]:
    """Exact n-step distributions and their distances to the stationary one.

    One row per n in 1..n_max. Requires an ergodic matrix (so the stationary
    distribution is the limit) and an initial distribution to start from.
    """
    return list(_convergence_rows(chain, n_max))


def _convergence_rows(chain: Chain, n_max: int) -> Iterator[ConvergenceRow]:
    """The rows of :func:`convergence_report`, one at a time; every check runs
    before the first, so a caller writing rows as they come writes none."""
    if _required("chain", Chain, chain).matrix._period != 1:
        raise NotErgodic("convergence report requires an ergodic transition matrix")
    if chain.initial is None:
        raise MissingInitialDistribution("convergence report needs an initial distribution")
    require_int("n_max", n_max, 1)
    (p,), q = _scaled((chain.matrix._law.weights,))
    a, d = chain.matrix._ints
    (w,), den = _scaled((chain.initial.weights,))
    for n, w in zip(range(1, n_max + 1), _walk(w, a)):
        yield ConvergenceRow(n, _over(w, den), _tv(w, den, p, q))
        den *= d
