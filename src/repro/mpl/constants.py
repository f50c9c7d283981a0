"""MPL/MPI constants: wildcards, packet kinds, reserved tags."""

from __future__ import annotations

__all__ = ["ANY_SOURCE", "ANY_TAG", "MplPacketKind", "ReservedTag"]

#: Wildcard source for receive matching (MPI_ANY_SOURCE).
ANY_SOURCE = -1
#: Wildcard tag for receive matching (MPI_ANY_TAG).
ANY_TAG = -1


class MplPacketKind:
    """Wire packet kinds of the MPL/MPI stack."""

    #: Data packet of an eager or rendezvous message.
    DATA = "data"
    #: Transport acknowledgement.
    ACK = "ack"
    #: Rendezvous request-to-send (envelope only).
    RTS = "rts"
    #: Rendezvous clear-to-send.
    CTS = "cts"


class ReservedTag:
    """Negative tags reserved for internal collectives.

    User tags must be >= 0; collective traffic uses this private range
    so it can never match a user receive.
    """

    BARRIER = -10
    BCAST = -11
    REDUCE = -12
    #: GA-on-MPL's request and reply streams.
    GA_REQ = -100
    GA_REP = -101
    #: Barrier tokens under a view with a dead rank are tagged below.
    VIEWS = -102

    #: Tags below this are reserved.
    USER_MIN = 0
