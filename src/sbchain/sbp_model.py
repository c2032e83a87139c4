"""The Sleeping Beauty repetition chain and its sequence correspondences.

The repeated experiment (one fair coin toss per week; Heads wakes the subject
on Monday only, Tails on Monday and Tuesday) induces a three-state chain on
(Heads-Monday, Tails-Monday, Tuesday). This module builds that chain, gives
the closed-form distribution of the n-th awakening, and converts between the
three equivalent descriptions of a run:

* coin sequence over {H, T},
* labeled awakening sequence over {M_H, M_T, Tu},
* observed day sequence over {M, Tu} (the labels with subscripts erased).

Decoding observed days takes two table lookups per day: the next day picks
a table, and that day picks its label from it. An M is a Tails-Monday when a
Tu follows it, else a Heads-Monday; a Tu with no fresh M before it is
malformed. A trailing M stays a Heads-Monday if the caller declares the
record experiment-complete, else it is undetermined (cut mid-experiment). The
converters take enum members only; the token parsers read text.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Sequence

from .markov_core import Chain, DistributionVector, new_chain
from .rationals import _decimal, _shown, _trusted, require_int

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
    1/3 - s/(3*2^(n-1)) for Tuesday, with s = (-1)^(n+1). They are built
    from ints as ((2^n + s)/3) / 2^n and ((2^(n-1) - s)/3) / 2^(n-1), where
    both divisions by 3 are exact (2^n = (-1)^n mod 3). Equals the matrix
    recursion initial * P^(n-1) for every n >= 1.
    """
    require_int("n", n)
    if n < 1:
        raise ValueError(f"awakening index must be >= 1, got {_decimal(n)}")
    sign = 1 if n % 2 == 1 else -1
    monday = Fraction(((1 << n) + sign) // 3, 1 << n)
    tuesday = Fraction(((1 << (n - 1)) - sign) // 3, 1 << (n - 1))
    return _trusted(DistributionVector, weights=(monday, monday, tuesday))


class _TokenTable(dict):
    """Maps each member's value, and the member itself if ``members``, to
    ``values[member]``. A token that misses is retried stripped and uppercased
    if it is a string; any other token raises ValueError with ``error``
    formatted with its repr."""

    def __init__(self, values: dict, error: str, members: bool = False):
        super().__init__({m.value: v for m, v in values.items()})
        if members:
            self.update(values)
        self.error = error

    def __missing__(self, token):
        value = self.get(token.strip().upper()) if isinstance(token, str) else None
        if value is None:
            raise ValueError(self.error.format(_shown(token)))
        return value


def _listed(items, what: str) -> list | tuple | str:
    """``items`` itself if a list, tuple or str, else ``list(items)``;
    ValueError naming ``what`` was expected if it is not iterable."""
    if isinstance(items, (list, tuple, str)):
        return items
    try:
        items = iter(items)
    except TypeError:
        raise ValueError(f"expected an iterable of {what}, got {_shown(items)}") from None
    return list(items)


def _parse_tokens(table: _TokenTable, tokens: Iterable, into=list):
    """``into`` applied to the iterator of ``table``'s value for each token."""
    tokens = _listed(tokens, "tokens")
    try:
        return into(map(table.__getitem__, tokens))
    except TypeError:
        # map stopped at the first unhashable token: all before it matched.
        for token in tokens:
            try:
                hash(token)
            except TypeError:
                raise ValueError(table.error.format(_shown(token))) from None
        raise


def _stray(expected: str, i: int, item) -> ValueError:
    return ValueError(f"position {i}: expected {expected}, got {_shown(item)}")


_DAY = {Awakening.M_H: Observation.M, Awakening.M_T: Observation.M, Awakening.TU: Observation.TU}
# A day's label: the next day (None after the last) picks a table, and that
# day its label from it. A Tu after a Tu has none, nor has a Tu that comes
# first, which is checked apart.
_ANY_NEXT = {Observation.M: Awakening.M_H, Observation.TU: Awakening.TU}
_BY_NEXT = {Observation.M: _ANY_NEXT, Observation.TU: {Observation.M: Awakening.M_T}, None: _ANY_NEXT}


def encode_coins(coins: Iterable[Toss | str]) -> list[Awakening]:
    """Expand tosses into awakenings: H gives (M_H,), T gives (M_T, Tu)."""
    out = _parse_tokens(_AWAKENINGS, coins, lambda runs: list(chain.from_iterable(runs)))
    if not out:
        raise EmptyInput("cannot encode an empty coin sequence")
    return out


def project_labels(seq: Sequence[Awakening]) -> list[Observation]:
    """Erase the subscripts: M_H and M_T both become M, Tu stays Tu."""
    seq = _listed(seq, "Awakenings")
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
                raise _stray("an Awakening", i, a) from None
        raise


def decode_observations(
    obs: Sequence[Observation], complete: bool = False
) -> list[Awakening]:
    """Relabel observed days: M is a Heads-Monday until a Tu follows it.

    With ``complete=True`` a trailing M stays a Heads-Monday (a Tails
    experiment cannot stop on its Monday); otherwise it becomes UNDETERMINED.
    """
    if not isinstance(complete, bool):
        raise ValueError(f"complete must be a bool, got {_shown(complete)}")
    obs = _listed(obs, "Observations")
    try:
        out = list(map(dict.__getitem__, map(_BY_NEXT.__getitem__, chain(islice(obs, 1, None), (None,))), obs))
    except (KeyError, TypeError):
        out = None
    if out is None or out[:1] == [Awakening.TU]:
        # Only now walk the days to find the first malformed one, and where it is.
        for i, o in enumerate(obs):
            if not isinstance(o, Observation):
                raise _stray("an Observation", i, o)
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
    seq = _listed(seq, "Awakenings")
    prev = None
    for i, a in enumerate(seq):
        if a is Awakening.TU:
            if i == 0:
                raise ValueError("labeled sequence cannot start with Tu")
            if prev is not Awakening.M_T:
                raise ValueError(f"Tu at position {i} is not preceded by M_T")
        elif not isinstance(a, Awakening):
            raise _stray("an Awakening", i, a)
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


_COINS = _TokenTable(dict(zip(Toss, Toss)), "not a coin toss: {} (expected H or T)", members=True)
_LABELS = _TokenTable(dict(zip(Awakening, Awakening)), "not an awakening token: {} (expected MH, MT, TU, or ?)")
_DAYS = _TokenTable(dict(zip(Observation, Observation)), "not an observed-day token: {} (expected M or TU)")
# encode_coins and simulation.forced_run read coins straight into what they
# need: each toss's awakenings, and 1 for Heads, 0 for Tails.
_AWAKENINGS = _TokenTable(
    {Toss.HEADS: (Awakening.M_H,), Toss.TAILS: (Awakening.M_T, Awakening.TU)}, _COINS.error, members=True
)
_HEADS = _TokenTable({Toss.HEADS: 1, Toss.TAILS: 0}, _COINS.error, members=True)


def parse_coin_tokens(tokens: Iterable[Toss | str]) -> list[Toss]:
    return _parse_tokens(_COINS, tokens)


def parse_labeled_tokens(tokens: Iterable[str]) -> list[Awakening]:
    return _parse_tokens(_LABELS, tokens)


def parse_observed_tokens(tokens: Iterable[str]) -> list[Observation]:
    return _parse_tokens(_DAYS, tokens)


def format_tokens(seq: Iterable[Toss | Awakening | Observation]) -> str:
    """The canonical tokens of ``seq``'s members, space-separated; ValueError
    for an input that is not iterable or an item that is not a member."""
    seq = _listed(seq, "symbols")
    for i, item in enumerate(seq):
        if not isinstance(item, _Symbol):
            raise _stray("a Toss, Awakening or Observation", i, item)
    return " ".join(item.value for item in seq)
