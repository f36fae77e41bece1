"""Two-party semi-honest secure computation over boolean circuits.

Two interchangeable backends evaluate the same circuit objects:

- :func:`gmw_steps` works on XOR shares with dealer-issued Beaver triples,
  and one-sided products for cross gates; its online round count equals
  the circuit's AND depth.
- :func:`garble_steps` and :func:`evaluate_steps` garble only the
  circuit's cross gates, which must all read querier inputs, and end with
  per-lane key sums that agree exactly when no cross gate reads 1; their
  online phase is a single round trip regardless of depth.

Both then release to party 0, in one more round, one value per output
where the output bit reads 0 and another where it reads 1: gmw by a
precomputed transfer whose choice bit is party 0's share and whose pair
party 1 orders by its own (:func:`reveal_steps`), yao by sending the first
value with a zero tag under a pad keyed by party 1's key sum, which opens
only under an equal sum, so that party 0 takes the second value, the
dummy, wherever the tag fails (:func:`release_steps` and
:func:`open_steps`).  Yao thus computes the comparator template, whose
output is 1 exactly when some cross gate reads 1, and no other circuit.
Party 0 learns one value per output and nothing of the other; party 1 sees
only one-time padded bits.  The precomputed transfer
(:mod:`prelude.smpc.transfer`) also carries yao's input labels.

Party 1's inputs are clear (see :mod:`prelude.circuits`): neither backend
shares, masks or labels them, and they feed only cross gates.

Either can also evaluate a circuit as a template over ``lanes`` independent
instances, packing every lane of a wire into one integer.  Party 0's inputs
are broadcast, one value per wire that every lane reads, so each takes one
mask bit or one label transfer whatever the lane count, and a cross gate at
AND level 1, whose secret wire is then the same in every lane, opens one
querier bit under gmw; everything else costs what the circuit unrolled
``lanes`` times would.

Every party is a step generator over frames, and :func:`drive` runs one
over a channel: an in-thread loopback whose peer is the other party's step
generator, with an injectable one-way delay, or a real socket.  Every byte
moved is visible to a :class:`SessionTranscript` for round and bandwidth
accounting.
"""

from prelude.smpc.channel import (
    ChannelClosed,
    ChannelTimeout,
    InlineLoopback,
    KIND_NAMES,
    MSG_AND_OPENING,
    MSG_ENVELOPE,
    MSG_ENVELOPE_ACK,
    MSG_GARBLED_TABLES,
    MSG_INPUT_SHARE,
    MSG_LABELS,
    MSG_OUTPUT_SHARE,
    MSG_SETUP_TRIPLES,
    ProtocolError,
    TcpChannel,
    drive,
    encode_frame,
    recv_frame,
    send_frame,
)
from prelude.smpc.dealer import (
    DealerMaterial,
    SetupUnderprovisioned,
    TripleStream,
    dealer_for_circuit,
    dealer_gen,
)
from prelude.smpc.gmw import gmw_steps, reveal_steps
from prelude.smpc.shares import BitShares, pack_bits, unpack_bits
from prelude.smpc.transcript import (
    ONLINE,
    RECEIVED,
    SENT,
    SETUP,
    SessionTranscript,
    TranscriptEntry,
)
from prelude.smpc.yao import (
    evaluate_steps,
    garble_steps,
    open_steps,
    release_steps,
)

__all__ = [
    "BitShares",
    "ChannelClosed",
    "ChannelTimeout",
    "DealerMaterial",
    "InlineLoopback",
    "KIND_NAMES",
    "MSG_AND_OPENING",
    "MSG_ENVELOPE",
    "MSG_ENVELOPE_ACK",
    "MSG_GARBLED_TABLES",
    "MSG_INPUT_SHARE",
    "MSG_LABELS",
    "MSG_OUTPUT_SHARE",
    "MSG_SETUP_TRIPLES",
    "ONLINE",
    "ProtocolError",
    "RECEIVED",
    "SENT",
    "SETUP",
    "SessionTranscript",
    "SetupUnderprovisioned",
    "TcpChannel",
    "TranscriptEntry",
    "TripleStream",
    "dealer_for_circuit",
    "dealer_gen",
    "drive",
    "encode_frame",
    "evaluate_steps",
    "garble_steps",
    "gmw_steps",
    "open_steps",
    "pack_bits",
    "recv_frame",
    "release_steps",
    "reveal_steps",
    "send_frame",
    "unpack_bits",
]
