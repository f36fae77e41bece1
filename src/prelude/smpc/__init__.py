"""Two-party semi-honest secure computation over boolean circuits.

Two interchangeable backends evaluate the same circuit objects:

- :func:`gmw_execute` works on XOR shares with dealer-issued Beaver triples,
  and one-sided products for cross gates; its online round count equals
  the circuit's AND depth.
- :func:`yao_execute` garbles the circuit; its online phase is a single
  round trip regardless of depth.

Either can also evaluate a circuit as a template over ``lanes`` independent
instances, packing every lane of a wire into one integer; rounds and bytes
are those of the circuit unrolled ``lanes`` times.

Both leave the result XOR-shared; :func:`reveal_output` reconstructs it,
optionally one-sided so only one party learns the plaintext.  Each party's
protocol is also available as a step generator over frames (``*_steps``);
the blocking functions run those over a channel.  Channels are in-process
queue pairs with an injectable one-way delay, an in-thread loopback whose
peer is a step generator, or real sockets.  Every byte moved is visible to a
:class:`SessionTranscript` for round and bandwidth accounting.
"""

from prelude.smpc.channel import (
    ChannelClosed,
    ChannelTimeout,
    InlineLoopback,
    KIND_NAMES,
    LoopbackEnd,
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
    frame_size,
    recv_frame,
    run_pair,
    send_frame,
)
from prelude.smpc.dealer import (
    DealerMaterial,
    SetupUnderprovisioned,
    TripleStream,
    dealer_for_circuit,
    dealer_gen,
)
from prelude.smpc.gmw import gmw_execute, gmw_steps, reveal_output, reveal_steps
from prelude.smpc.shares import BitShares, pack_bits, reconstruct, share, unpack_bits
from prelude.smpc.transcript import (
    ONLINE,
    RECEIVED,
    SENT,
    SETUP,
    SessionTranscript,
    TranscriptEntry,
)
from prelude.smpc.yao import (
    YAO_ROUNDS_WITH_REVEAL,
    evaluate_steps,
    garble_steps,
    open_steps,
    release_steps,
    yao_execute,
    yao_steps,
)

__all__ = [
    "BitShares",
    "ChannelClosed",
    "ChannelTimeout",
    "DealerMaterial",
    "InlineLoopback",
    "KIND_NAMES",
    "LoopbackEnd",
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
    "YAO_ROUNDS_WITH_REVEAL",
    "dealer_for_circuit",
    "dealer_gen",
    "drive",
    "encode_frame",
    "evaluate_steps",
    "frame_size",
    "garble_steps",
    "gmw_execute",
    "gmw_steps",
    "open_steps",
    "pack_bits",
    "reconstruct",
    "recv_frame",
    "release_steps",
    "reveal_output",
    "reveal_steps",
    "run_pair",
    "send_frame",
    "share",
    "unpack_bits",
    "yao_execute",
    "yao_steps",
]
