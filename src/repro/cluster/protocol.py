"""Message types of the coordinated checkpoint protocol (Section 3.2).

The master drives the six-step protocol::

    (1) master --quiesce-->  all compute nodes
    (2) nodes  --ready---->  master           (once quiesced)
    (3) master --checkpoint-> all compute nodes
    (4) nodes  --done----->  master           (checkpoint dumped)
    (5) master --proceed--->  all compute nodes
    (6) nodes resume; I/O nodes write the checkpoint back in background

plus ``abort`` when the master times out waiting for 'ready'. The
compute side answers collectively: one 'ready' speaks for every node
that quiesced in the round, one 'done' for each I/O group's dump.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = ["MessageType", "Message"]


class MessageType(enum.Enum):
    """Protocol message kinds."""

    QUIESCE = "quiesce"
    READY = "ready"
    CHECKPOINT = "checkpoint"
    DONE = "done"
    PROCEED = "proceed"
    ABORT = "abort"


@dataclass(frozen=True)
class Message:
    """One protocol message.

    Attributes
    ----------
    type:
        The protocol step this message performs.
    sender:
        Node identifier of the sender (-1 for the master and for the
        compute nodes answering as one).
    epoch:
        The checkpoint round the message belongs to; nodes discard
        messages from stale rounds (e.g. a 'ready' that arrives after
        the master already aborted that round).
    count:
        How many compute nodes a collective 'ready' or 'done' speaks
        for.
    """

    type: MessageType
    sender: int
    epoch: int
    count: int = 1

    def __str__(self) -> str:
        return f"{self.type.value}(from={self.sender}, epoch={self.epoch})"
