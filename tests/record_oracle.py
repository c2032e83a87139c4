"""Reference writers for ``simulation``'s record text.

These are the writers as first written: ``record_to_json`` puts one dict per
checkpoint into the document and hands it all to ``json.dumps(indent=2)``,
and ``record_to_csv`` joins the rows with newlines. The template writers must
produce exactly their bytes. Not collected by pytest (no ``test_`` prefix).
"""

import json

from sbchain.simulation import SimulationRecord, _header


def checkpoint_marks(total, stride):
    """Every ``stride``-th unit below ``total``, then ``total``: a run's marks."""
    return [*range(stride, total, stride), total]


def unchecked_record(config, checkpoints):
    """A SimulationRecord built without its checks, so that the oracle can
    write text that no record gives, for the reader to refuse."""
    record = object.__new__(SimulationRecord)
    object.__setattr__(record, "config", config)
    object.__setattr__(record, "checkpoints", checkpoints)
    return record


def record_to_json(record):
    checkpoints = [
        {"experiments": m, "awakenings": a, "halfer": h / m, "thirder": h / a}
        for m, a in record.checkpoints
        for h in (2 * m - a,)
    ]
    return json.dumps({**_header(record), "checkpoints": checkpoints}, indent=2)


def record_to_csv(record):
    lines = ["experiments,awakenings,halfer,thirder,freq_MH,freq_MT,freq_TU"]
    for m, a in record.checkpoints:
        heads = 2 * m - a
        tails = m - heads
        lines.append(
            f"{m},{a},{heads / m:.6f},{heads / a:.6f},"
            f"{heads / a:.6f},{tails / a:.6f},{tails / a:.6f}"
        )
    return "\n".join(lines) + "\n"
