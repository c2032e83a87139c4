"""The Sleeping Beauty repetition chain and its sequence correspondences.

The repeated experiment (one fair coin toss per week; Heads wakes the subject
on Monday only, Tails on Monday and Tuesday) induces a three-state chain on
(Heads-Monday, Tails-Monday, Tuesday). This module builds that chain, gives
the closed-form distribution of the n-th awakening, and converts between the
three equivalent descriptions of a run:

* coin sequence over {H, T},
* labeled awakening sequence over {M_H, M_T, Tu},
* observed day sequence over {M, Tu} (the labels with subscripts erased).

Decoding observed days is one pass: each M is read as a Heads-Monday, and a
Tu turns the M just before it into a Tails-Monday; a Tu with no fresh M before
it is malformed. A trailing M stays a Heads-Monday if the caller declares the
record experiment-complete, else it is undetermined (cut mid-experiment).
The converters take enum members only; the token parsers read text.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .markov_core import Chain, DistributionVector, new_chain
from .rationals import require_int

__all__ = [
    "Awakening", "EmptyInput", "MalformedObservation", "Observation", "Toss",
    "UndeterminedSymbol", "decode_observations", "encode_coins", "exact_distribution",
    "project_labels", "sbp_chain", "validate_labeled_sequence",
]

STATE_LABELS = ("M_H", "M_T", "Tu")


class Toss(Enum):
    HEADS = "H"
    TAILS = "T"


class Awakening(Enum):
    """One awakening in a labeled sequence.

    UNDETERMINED can only appear as the final symbol of a decoded sequence,
    standing for a trailing Monday whose experiment may still be unfinished.
    """

    M_H = "MH"
    M_T = "MT"
    TU = "TU"
    UNDETERMINED = "?"


class Observation(Enum):
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
        raise ValueError(f"awakening index must be >= 1, got {n}")
    sign = 1 if n % 2 == 1 else -1
    monday = Fraction(1, 3) + Fraction(sign, 3 * 2**n)
    tuesday = Fraction(1, 3) - Fraction(sign, 3 * 2 ** (n - 1))
    return DistributionVector((monday, monday, tuesday))


def _parse_tokens(enum: type[Enum], tokens: Iterable, error: str) -> list:
    """Members of ``enum`` whose values equal the tokens stripped and uppercased.
    Any other token raises ValueError with ``error`` formatted with its repr."""
    table = {m.value: m for m in enum}
    out = []
    for token in tokens:
        member = table.get(token.strip().upper()) if isinstance(token, str) else None
        if member is None:
            raise ValueError(error.format(token))
        out.append(member)
    return out


def _stray(enum: type[Enum], i: int, item) -> ValueError:
    return ValueError(f"position {i}: expected an {enum.__name__}, got {item!r}")


_AWAKENINGS = {Toss.HEADS: (Awakening.M_H,), Toss.TAILS: (Awakening.M_T, Awakening.TU)}
_DAY = {Awakening.M_H: Observation.M, Awakening.M_T: Observation.M, Awakening.TU: Observation.TU}


def encode_coins(coins: Iterable[Toss | str]) -> list[Awakening]:
    """Expand tosses into awakenings: H gives (M_H,), T gives (M_T, Tu)."""
    tosses = parse_coin_tokens(coins)
    if not tosses:
        raise EmptyInput("cannot encode an empty coin sequence")
    return [a for toss in tosses for a in _AWAKENINGS[toss]]


def project_labels(seq: Sequence[Awakening]) -> list[Observation]:
    """Erase the subscripts: M_H and M_T both become M, Tu stays Tu."""
    out = []
    for i, a in enumerate(seq):
        try:
            out.append(_DAY[a])
        except (KeyError, TypeError):
            if a is Awakening.UNDETERMINED:
                raise UndeterminedSymbol(
                    f"cannot project undetermined awakening at position {i}"
                ) from None
            raise _stray(Awakening, i, a) from None
    return out


def decode_observations(
    obs: Sequence[Observation], complete: bool = False
) -> list[Awakening]:
    """Relabel observed days: M is a Heads-Monday until a Tu follows it.

    With ``complete=True`` a trailing M stays a Heads-Monday (a Tails
    experiment cannot stop on its Monday); otherwise it becomes UNDETERMINED.
    """
    m, tu, m_h = Observation.M, Observation.TU, Awakening.M_H
    out: list[Awakening] = []
    for i, o in enumerate(obs):
        if o is m:
            out.append(m_h)
        elif o is tu:
            if not out:
                raise MalformedObservation("observed sequence cannot start with Tu")
            if out[-1] is not m_h:
                raise MalformedObservation(f"two consecutive Tu at positions {i - 1}, {i}")
            out[-1] = Awakening.M_T
            out.append(Awakening.TU)
        else:
            raise _stray(Observation, i, o)
    if out and out[-1] is m_h and not complete:
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


def parse_coin_tokens(tokens: Iterable[Toss | str]) -> list[Toss]:
    tokens = (t.value if isinstance(t, Toss) else t for t in tokens)
    return _parse_tokens(Toss, tokens, "not a coin toss: {!r} (expected H or T)")


def parse_labeled_tokens(tokens: Iterable[str]) -> list[Awakening]:
    return _parse_tokens(
        Awakening, tokens, "not an awakening token: {!r} (expected MH, MT, TU, or ?)"
    )


def parse_observed_tokens(tokens: Iterable[str]) -> list[Observation]:
    return _parse_tokens(
        Observation, tokens, "not an observed-day token: {!r} (expected M or TU)"
    )


def format_tokens(seq: Iterable[Toss | Awakening | Observation]) -> str:
    return " ".join(item.value for item in seq)
