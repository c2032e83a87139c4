"""The Sleeping Beauty repetition chain and its sequence correspondences.

The repeated experiment (one fair coin toss per week; Heads wakes the subject
on Monday only, Tails on Monday and Tuesday) induces a three-state chain on
(Heads-Monday, Tails-Monday, Tuesday). This module builds that chain, gives
the closed-form distribution of the n-th awakening, and converts between the
three equivalent descriptions of a run:

* coin sequence over {H, T},
* labeled awakening sequence over {M_H, M_T, Tu},
* observed day sequence over {M, Tu} (the labels with subscripts erased).

Decoding observed days is one table lookup per day on (that day, the next):
an M is a Tails-Monday when a Tu follows it, else a Heads-Monday; a Tu with
no fresh M before it is malformed. A trailing M stays a Heads-Monday if the
caller declares the record experiment-complete, else it is undetermined (cut
mid-experiment). The converters take enum members only; the token parsers
read text.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Sequence

from .markov_core import Chain, DistributionVector, new_chain
from .rationals import _decimal, _shown, require_int

__all__ = [
    "Awakening", "EmptyInput", "MalformedObservation", "Observation", "Toss",
    "UndeterminedSymbol", "decode_observations", "encode_coins", "exact_distribution",
    "project_labels", "sbp_chain", "validate_labeled_sequence",
]

STATE_LABELS = ("M_H", "M_T", "Tu")


class _Symbol(Enum):
    # Members are singletons that compare by identity, so the identity hash
    # agrees with equality. Enum's own __hash__ is a Python call that hashes
    # the name, and it dominated the converters' one dict lookup per symbol.
    __hash__ = object.__hash__


class Toss(_Symbol):
    HEADS = "H"
    TAILS = "T"


class Awakening(_Symbol):
    """One awakening in a labeled sequence.

    UNDETERMINED can only appear as the final symbol of a decoded sequence,
    standing for a trailing Monday whose experiment may still be unfinished.
    """

    M_H = "MH"
    M_T = "MT"
    TU = "TU"
    UNDETERMINED = "?"


class Observation(_Symbol):
    M = "M"
    TU = "TU"


class EmptyInput(ValueError):
    """A non-empty sequence is required."""


class UndeterminedSymbol(ValueError):
    """Labeled sequence contains an undetermined awakening."""


class MalformedObservation(ValueError):
    """Observed sequence starts with Tu or has two consecutive Tu."""


def sbp_chain() -> Chain:
    """The repetition chain: states (M_H, M_T, Tu), fair-coin transitions.

    From M_H or Tu the next awakening is a fresh Monday (M_H or M_T with
    probability 1/2 each); M_T is always followed by Tu. The first awakening
    is a Monday of a fresh experiment, giving the initial [1/2, 1/2, 0].
    """
    half = Fraction(1, 2)
    grid = [
        [half, half, 0],
        [0, 0, 1],
        [half, half, 0],
    ]
    return new_chain(STATE_LABELS, grid, initial=[half, half, 0])


def exact_distribution(n: int) -> DistributionVector:
    """Closed-form distribution of the n-th awakening, exact.

    Components: 1/3 + s/(3*2^n) for the two Monday states and
    1/3 - s/(3*2^(n-1)) for Tuesday, with s = (-1)^(n+1). Equals the
    matrix recursion initial * P^(n-1) for every n >= 1.
    """
    require_int("n", n)
    if n < 1:
        raise ValueError(f"awakening index must be >= 1, got {_decimal(n)}")
    sign = 1 if n % 2 == 1 else -1
    monday = Fraction(1, 3) + Fraction(sign, 3 * 2**n)
    tuesday = Fraction(1, 3) - Fraction(sign, 3 * 2 ** (n - 1))
    return DistributionVector((monday, monday, tuesday))


class _TokenTable(dict):
    """Members of ``enum`` by value, and by themselves if ``members``. A token
    that misses is retried stripped and uppercased if it is a string; any
    other token raises ValueError with ``error`` formatted with its repr."""

    def __init__(self, enum: type[Enum], error: str, members: bool = False):
        super().__init__({m.value: m for m in enum})
        if members:
            self.update({m: m for m in enum})
        self.error = error

    def __missing__(self, token):
        member = self.get(token.strip().upper()) if isinstance(token, str) else None
        if member is None:
            raise ValueError(self.error.format(_shown(token)))
        return member


def _parse_tokens(table: _TokenTable, tokens: Iterable) -> list:
    if not isinstance(tokens, (list, tuple, str)):
        tokens = list(tokens)
    try:
        return list(map(table.__getitem__, tokens))
    except TypeError:
        # map stopped at the first unhashable token: all before it matched.
        for token in tokens:
            try:
                hash(token)
            except TypeError:
                raise ValueError(table.error.format(_shown(token))) from None
        raise


def _stray(enum: type[Enum], i: int, item) -> ValueError:
    return ValueError(f"position {i}: expected an {enum.__name__}, got {_shown(item)}")


_AWAKENINGS = {Toss.HEADS: (Awakening.M_H,), Toss.TAILS: (Awakening.M_T, Awakening.TU)}
_DAY = {Awakening.M_H: Observation.M, Awakening.M_T: Observation.M, Awakening.TU: Observation.TU}
# A day's label from (that day, the next day), None after the last. A Tu
# after a Tu has none, nor has a Tu that comes first, which is checked apart.
_DECODE = {
    (Observation.M, Observation.M): Awakening.M_H,
    (Observation.M, None): Awakening.M_H,
    (Observation.M, Observation.TU): Awakening.M_T,
    (Observation.TU, Observation.M): Awakening.TU,
    (Observation.TU, None): Awakening.TU,
}


def encode_coins(coins: Iterable[Toss | str]) -> list[Awakening]:
    """Expand tosses into awakenings: H gives (M_H,), T gives (M_T, Tu)."""
    tosses = parse_coin_tokens(coins)
    if not tosses:
        raise EmptyInput("cannot encode an empty coin sequence")
    return list(chain.from_iterable(map(_AWAKENINGS.__getitem__, tosses)))


def project_labels(seq: Sequence[Awakening]) -> list[Observation]:
    """Erase the subscripts: M_H and M_T both become M, Tu stays Tu."""
    if not isinstance(seq, (list, tuple)):
        seq = list(seq)
    try:
        return list(map(_DAY.__getitem__, seq))
    except (KeyError, TypeError):
        # Only now find the first item that has no day, and where it is.
        for i, a in enumerate(seq):
            if a is Awakening.UNDETERMINED:
                raise UndeterminedSymbol(
                    f"cannot project undetermined awakening at position {i}"
                ) from None
            if not isinstance(a, Awakening):
                raise _stray(Awakening, i, a) from None
        raise


def decode_observations(
    obs: Sequence[Observation], complete: bool = False
) -> list[Awakening]:
    """Relabel observed days: M is a Heads-Monday until a Tu follows it.

    With ``complete=True`` a trailing M stays a Heads-Monday (a Tails
    experiment cannot stop on its Monday); otherwise it becomes UNDETERMINED.
    """
    if not isinstance(obs, (list, tuple)):
        obs = list(obs)
    try:
        out = list(map(_DECODE.__getitem__, zip(obs, chain(islice(obs, 1, None), (None,)))))
    except (KeyError, TypeError):
        out = None
    if out is None or out[:1] == [Awakening.TU]:
        # Only now walk the days to find the first malformed one, and where it is.
        for i, o in enumerate(obs):
            if not isinstance(o, Observation):
                raise _stray(Observation, i, o)
            if o is Observation.TU and i == 0:
                raise MalformedObservation("observed sequence cannot start with Tu")
            if o is Observation.TU and obs[i - 1] is Observation.TU:
                raise MalformedObservation(f"two consecutive Tu at positions {i - 1}, {i}")
    if out and out[-1] is Awakening.M_H and not complete:
        out[-1] = Awakening.UNDETERMINED
    return out


def validate_labeled_sequence(seq: Sequence[Awakening]) -> None:
    """Raise ValueError unless every item is an Awakening, the sequence starts
    with a Monday, every M_T is immediately followed by Tu, every Tu is
    immediately preceded by M_T, and UNDETERMINED is at most the final symbol.
    """
    prev = None
    for i, a in enumerate(seq):
        if a is Awakening.TU:
            if i == 0:
                raise ValueError("labeled sequence cannot start with Tu")
            if prev is not Awakening.M_T:
                raise ValueError(f"Tu at position {i} is not preceded by M_T")
        elif not isinstance(a, Awakening):
            raise _stray(Awakening, i, a)
        elif prev is Awakening.M_T:
            raise ValueError(f"M_T at position {i - 1} is not followed by Tu")
        elif a is Awakening.UNDETERMINED and i != len(seq) - 1:
            raise ValueError(f"undetermined awakening at non-final position {i}")
        prev = a
    if prev is Awakening.M_T:
        raise ValueError(f"M_T at position {len(seq) - 1} is not followed by Tu")


# --- token formats for CLI I/O -------------------------------------------
# Coins: "H T", labeled: "MH MT TU" ("?" for undetermined), observed: "M TU".
# Reads are case-insensitive; writes use the canonical uppercase forms.


_COINS = _TokenTable(Toss, "not a coin toss: {} (expected H or T)", members=True)
_LABELS = _TokenTable(Awakening, "not an awakening token: {} (expected MH, MT, TU, or ?)")
_DAYS = _TokenTable(Observation, "not an observed-day token: {} (expected M or TU)")


def parse_coin_tokens(tokens: Iterable[Toss | str]) -> list[Toss]:
    return _parse_tokens(_COINS, tokens)


def parse_labeled_tokens(tokens: Iterable[str]) -> list[Awakening]:
    return _parse_tokens(_LABELS, tokens)


def parse_observed_tokens(tokens: Iterable[str]) -> list[Observation]:
    return _parse_tokens(_DAYS, tokens)


def format_tokens(seq: Iterable[Toss | Awakening | Observation]) -> str:
    return " ".join(item.value for item in seq)
