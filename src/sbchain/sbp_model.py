"""The Sleeping Beauty repetition chain and its sequence correspondences.

The repeated experiment (one fair coin toss per week; Heads wakes the subject
on Monday only, Tails on Monday and Tuesday) induces a three-state chain on
(Heads-Monday, Tails-Monday, Tuesday). This module builds that chain, gives
the closed-form distribution of the n-th awakening, and converts between the
three equivalent descriptions of a run:

* coin sequence over {H, T},
* labeled awakening sequence over {M_H, M_T, Tu},
* observed day sequence over {M, Tu} (the labels with subscripts erased).

Decoding an observed sequence back to labels uses the right neighbor of each
M: an M followed by another M is a Heads-Monday, an M followed by Tu is a
Tails-Monday. A trailing M has no right neighbor; callers declare whether the
record is experiment-complete (trailing M must then be a Heads-Monday) or a
prefix cut mid-experiment (trailing M stays undetermined).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .markov_core import Chain, DistributionVector, new_chain

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
    if n < 1:
        raise ValueError(f"awakening index must be >= 1, got {n}")
    sign = 1 if n % 2 == 1 else -1
    monday = Fraction(1, 3) + Fraction(sign, 3 * 2**n)
    tuesday = Fraction(1, 3) - Fraction(sign, 3 * 2 ** (n - 1))
    return DistributionVector((monday, monday, tuesday))


def _parse_tokens(enum: type[Enum], tokens: Iterable, error: str) -> list:
    """Members of ``enum`` whose values the string tokens equal once stripped
    and uppercased. Any other token raises ValueError with ``error``
    formatted with its repr.
    """
    table = {m.value: m for m in enum}
    out = []
    for token in tokens:
        member = table.get(token.strip().upper()) if isinstance(token, str) else None
        if member is None:
            raise ValueError(error.format(token))
        out.append(member)
    return out


def encode_coins(coins: Iterable[Toss | str]) -> list[Awakening]:
    """Expand coin tosses into the labeled awakening stream.

    Heads contributes (M_H,); Tails contributes (M_T, Tu). The output length
    is #H + 2*#T.
    """
    tosses = parse_coin_tokens(coins)
    if not tosses:
        raise EmptyInput("cannot encode an empty coin sequence")
    out: list[Awakening] = []
    for toss in tosses:
        if toss is Toss.HEADS:
            out.append(Awakening.M_H)
        else:
            out.append(Awakening.M_T)
            out.append(Awakening.TU)
    return out


def project_labels(seq: Sequence[Awakening]) -> list[Observation]:
    """Erase the subscripts: M_H and M_T both become M, Tu stays Tu."""
    out = []
    for i, a in enumerate(seq):
        if a is Awakening.UNDETERMINED:
            raise UndeterminedSymbol(
                f"cannot project undetermined awakening at position {i}"
            )
        out.append(Observation.TU if a is Awakening.TU else Observation.M)
    return out


def decode_observations(
    obs: Sequence[Observation], complete: bool = False
) -> list[Awakening]:
    """Relabel an observed day sequence using each M's right neighbor.

    M before M is a Heads-Monday, M before Tu is a Tails-Monday, Tu stays Tu.
    With ``complete=True`` a trailing M is a Heads-Monday (a Tails experiment
    cannot stop on its Monday); otherwise it decodes to UNDETERMINED.
    """
    for i, o in enumerate(obs):
        if o is Observation.TU:
            if i == 0:
                raise MalformedObservation("observed sequence cannot start with Tu")
            if obs[i - 1] is Observation.TU:
                raise MalformedObservation(
                    f"two consecutive Tu at positions {i - 1}, {i}"
                )
    out: list[Awakening] = []
    for i, o in enumerate(obs):
        if o is Observation.TU:
            out.append(Awakening.TU)
        elif i + 1 < len(obs):
            next_is_tu = obs[i + 1] is Observation.TU
            out.append(Awakening.M_T if next_is_tu else Awakening.M_H)
        else:
            out.append(Awakening.M_H if complete else Awakening.UNDETERMINED)
    return out


def validate_labeled_sequence(seq: Sequence[Awakening]) -> None:
    """Check the structural invariants of a labeled awakening sequence.

    Raises ValueError unless: the sequence starts with a Monday, every M_T is
    immediately followed by Tu, and every Tu is immediately preceded by M_T.
    UNDETERMINED is tolerated only as the final symbol.
    """
    if seq and seq[0] is Awakening.TU:
        raise ValueError("labeled sequence cannot start with Tu")
    for i, a in enumerate(seq):
        if a is Awakening.UNDETERMINED and i != len(seq) - 1:
            raise ValueError(f"undetermined awakening at non-final position {i}")
        if a is Awakening.M_T:
            if i + 1 >= len(seq) or seq[i + 1] is not Awakening.TU:
                raise ValueError(f"M_T at position {i} is not followed by Tu")
        if a is Awakening.TU:
            if i == 0 or seq[i - 1] is not Awakening.M_T:
                raise ValueError(f"Tu at position {i} is not preceded by M_T")


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
