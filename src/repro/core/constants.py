"""LAPI constants: operation codes and environment-query keys.

Mirrors the constants of the PSSP 2.3 LAPI interface that the paper's
Table 1 functions take (see `IBM PSSP Administration Guide`, GC23-3897).
"""

from __future__ import annotations

import enum

__all__ = ["RmwOp", "QenvKey", "SenvKey", "PacketKind"]


class RmwOp(enum.Enum):
    """The four atomic read-modify-write primitives of ``LAPI_Rmw``.

    Section 3: "LAPI provides a simple RMW mechanism with four atomic
    primitives for Swap, Compare_and_Swap, Fetch_and_Add, Fetch_and_Or".
    All operate on an aligned 64-bit word in the target's address space
    and return the previous value to the origin.
    """

    SWAP = "swap"
    COMPARE_AND_SWAP = "compare_and_swap"
    FETCH_AND_ADD = "fetch_and_add"
    FETCH_AND_OR = "fetch_and_or"


class QenvKey(enum.Enum):
    """Query keys accepted by ``LAPI_Qenv``."""

    #: This task's id within the job.
    TASK_ID = "task_id"
    #: Number of tasks in the job.
    NUM_TASKS = "num_tasks"
    #: Maximum user header (uhdr) bytes in LAPI_Amsend.
    MAX_UHDR_SZ = "max_uhdr_sz"
    #: Maximum user data bytes a *single-packet* active message can carry
    #: alongside a maximal uhdr -- the "around 900 bytes" GA exploits.
    MAX_AM_PAYLOAD = "max_am_payload"
    #: Data bytes per packet for multi-packet transfers.
    MAX_PKT_PAYLOAD = "max_pkt_payload"
    #: Current interrupt mode (1 = interrupt, 0 = polling).
    INTERRUPT_SET = "interrupt_set"
    #: Number of packets the send window allows in flight per target.
    SEND_WINDOW = "send_window"


class SenvKey(enum.Enum):
    """Settable environment knobs accepted by ``LAPI_Senv``."""

    #: 1 = interrupt mode (default), 0 = polling mode.
    INTERRUPT_SET = "interrupt_set"
    #: 1 = check user errors eagerly (always on in this model).
    ERROR_CHK = "error_chk"


class PacketKind:
    """Wire packet kinds used by the LAPI protocol engine.

    Grouped as *data-bearing* kinds (flow through the send window) and
    *control* kinds (bypass the window so the dispatcher never blocks).
    """

    #: Multi-packet data of Put / Amsend / Get-reply streams.
    DATA = "data"
    #: Transport acknowledgement (reliability layer).
    ACK = "ack"
    #: Remote-get request: target must stream data back.
    GET_REQ = "get_req"
    #: Completion notification updating an origin-side counter.
    CMPL = "cmpl"
    #: Read-modify-write request / reply.
    RMW_REQ = "rmw_req"
    RMW_REP = "rmw_rep"
    #: Dissemination-barrier token (LAPI_Gfence).
    BARRIER = "barrier"

    #: Message types carried inside DATA packets.
    MSG_PUT = "put"
    MSG_AM = "am"
    MSG_GET_REP = "get_rep"
