"""Two-party semi-honest secure computation over boolean circuits.

Two interchangeable backends evaluate the same circuit objects:

- :func:`gmw_steps` works on XOR shares with dealer-issued Beaver triples,
  and one-sided products for cross gates; its online round count equals
  the circuit's AND depth.  :func:`reveal_steps` then opens the shared
  result, optionally one-sided so only one party learns the plaintext.
- :func:`garble_steps` and :func:`evaluate_steps` garble and evaluate the
  circuit; their online phase is a single round trip regardless of depth.
  :func:`release_steps` and :func:`open_steps` then release to the
  evaluator one value per output wire, chosen by the wire's bit.

Either can also evaluate a circuit as a template over ``lanes`` independent
instances, packing every lane of a wire into one integer; rounds and bytes
are those of the circuit unrolled ``lanes`` times.

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
