"""Branchy reference for the sequence converters of ``sbp_model``.

These are the converters as first written: one branch per symbol in
``encode_coins`` and ``project_labels``, a parse pass and then a count of
Heads for ``forced_run``, a validation pass followed by a right-neighbor
lookahead in ``decode_observations``, and lookahead and lookbehind checks in
``validate_labeled_sequence``. On sequences of enum
members, the table-driven converters must agree with them in output, or in
exception type and message. Not collected by pytest (no ``test_`` prefix).
"""

from sbchain.sbp_model import (
    Awakening,
    EmptyInput,
    MalformedObservation,
    Observation,
    Toss,
    UndeterminedSymbol,
    parse_coin_tokens,
)


def encode_coins(coins):
    tosses = parse_coin_tokens(coins)
    if not tosses:
        raise EmptyInput("cannot encode an empty coin sequence")
    out = []
    for toss in tosses:
        if toss is Toss.HEADS:
            out.append(Awakening.M_H)
        else:
            out.append(Awakening.M_T)
            out.append(Awakening.TU)
    return out


def forced_heads(coins):
    """The Heads count of ``simulation.forced_run(coins)``: the tosses parsed
    first, then counted."""
    tosses = parse_coin_tokens(coins)
    if not tosses:
        raise EmptyInput("cannot run a simulation on an empty coin sequence")
    return tosses.count(Toss.HEADS)


def project_labels(seq):
    out = []
    for i, a in enumerate(seq):
        if a is Awakening.UNDETERMINED:
            raise UndeterminedSymbol(
                f"cannot project undetermined awakening at position {i}"
            )
        out.append(Observation.TU if a is Awakening.TU else Observation.M)
    return out


def decode_observations(obs, complete=False):
    for i, o in enumerate(obs):
        if o is Observation.TU:
            if i == 0:
                raise MalformedObservation("observed sequence cannot start with Tu")
            if obs[i - 1] is Observation.TU:
                raise MalformedObservation(
                    f"two consecutive Tu at positions {i - 1}, {i}"
                )
    out = []
    for i, o in enumerate(obs):
        if o is Observation.TU:
            out.append(Awakening.TU)
        elif i + 1 < len(obs):
            next_is_tu = obs[i + 1] is Observation.TU
            out.append(Awakening.M_T if next_is_tu else Awakening.M_H)
        else:
            out.append(Awakening.M_H if complete else Awakening.UNDETERMINED)
    return out


def validate_labeled_sequence(seq):
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
