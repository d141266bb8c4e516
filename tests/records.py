"""A trace's columns as the records the pack references in ``oracles.py`` read."""

from collections import namedtuple

Record = namedtuple("Record", "id length")


def records(trace):
    """One ``Record`` per sample, in trace order."""
    return [Record(sid, length) for sid, length in zip(trace.ids, trace.lengths)]
