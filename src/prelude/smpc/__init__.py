"""Two-party semi-honest secure computation of the rule comparator.

Two interchangeable backends run the one comparator template
(:class:`prelude.circuits.BatchQueryCircuit`):

- :func:`gmw_steps` works on XOR shares, level by level, each level on
  its own piece of dealer material: one-time truth tables over pairs of
  comparator cells for the lookup level, read at the querier's symbols by
  a shift of Z3, and shares of the products of each OR-tree gate's input
  masks, for gates of up to four inputs; its online round count equals
  the template's AND depth.
- :func:`garble_steps` and :func:`evaluate_steps` garble only the 2w
  cross gates and end with per-lane key sums that agree exactly when no
  cross gate reads 1; their online phase is a single round trip.  Every
  row has one formula under a PRF of the gate's labels.  From 20 lanes
  on each label keys AES and OpenSSL does every per-lane XOR of a
  gate's rows; below that, where a gate's fixed calls would cost more
  than they save, the PRF is a fixed-key hash over every lane at once
  (:mod:`prelude.smpc.yao`).

Under either backend the querier's first online frame, its word under a
piece of dealer material that no lane count changes, goes out before it
learns the lane count (:func:`first_steps`): gmw's shifted symbols or
yao's masked label choices.

Both then release to party 0, in one more round, one value per lane where
the output bit reads 0 and another where it reads 1: gmw by a precomputed
transfer whose choice bit is party 0's share and whose pair party 1 orders
by its own (:func:`reveal_steps`), yao by sending the first value with a
zero tag under a pad keyed by party 1's key sum, which opens only under an
equal sum, so that party 0 takes the second value, the dummy, wherever the
tag fails (:func:`release_steps` and :func:`open_steps`).  Party 0 learns
one value per lane and nothing of the other; party 1 sees only one-time
padded bits.  The precomputed transfer (:mod:`prelude.smpc.transfer`) also
carries yao's input labels.

:func:`dealer_for_circuit` deals one run of the template, its level plan
over ``lanes`` entries, and each party's :class:`DealerMaterial` holds that
plan and its backend; every backend refuses material dealt for the other
party, for the other backend or for another plan with a
:class:`ValueError` naming both plans.  A run takes from its material
what the material fixes: the lane count, and the size of the values a
gmw release carries.

The template runs over ``lanes`` entries at once, every lane of a gate
packed into one integer.  Each party passes its word, which
:meth:`prelude.circuits.BatchQueryCircuit.word` builds from its rules and
every backend range-checks the same way.  Party 1's word is clear (see
:mod:`prelude.circuits`): neither backend shares, masks or labels it, and
it feeds only the first level, yao's cross gates or gmw's lookup tables.
Party 0's word is broadcast, one bit per gate that every lane reads, so
each bit takes one label transfer, or each cell one shift, whatever the
lane count, and under gmw the querier sends two bits per cell; everything
else costs what the template unrolled ``lanes`` times would.

Every party is a step generator over frames.  :func:`run_pair` runs a
session's two parties against each other in the calling thread, with an
injectable one-way delay, and :func:`drive` runs one party over a real
socket, the only channel that encodes frames.  No step keeps accounts:
:func:`recorded` wraps a party's steps and counts every frame it moves in
a :class:`SessionTranscript`, which takes each frame's phase from its kind
and keeps running byte and online round counters, not the frames.  Dealer
material travels in no frame; whoever deals it adds its size to the
transcript's setup bytes.
"""

from prelude.smpc.channel import (
    ChannelClosed,
    ChannelTimeout,
    KIND_NAMES,
    MSG_AND_OPENING,
    MSG_ENVELOPE,
    MSG_ENVELOPE_ACK,
    MSG_GARBLED_TABLES,
    MSG_INPUT_SHARE,
    MSG_LABELS,
    MSG_OUTPUT_SHARE,
    ProtocolError,
    TcpChannel,
    drive,
    encode_frame,
    recv_frame,
    run_pair,
    send_frame,
)
from prelude.smpc.dealer import DealerMaterial, dealer_for_circuit, first_steps
from prelude.smpc.gmw import gmw_steps, reveal_steps
from prelude.smpc.transcript import SessionTranscript, recorded
from prelude.smpc.yao import (
    evaluate_steps,
    garble_steps,
    open_steps,
    release_steps,
)

__all__ = [
    "ChannelClosed",
    "ChannelTimeout",
    "DealerMaterial",
    "KIND_NAMES",
    "MSG_AND_OPENING",
    "MSG_ENVELOPE",
    "MSG_ENVELOPE_ACK",
    "MSG_GARBLED_TABLES",
    "MSG_INPUT_SHARE",
    "MSG_LABELS",
    "MSG_OUTPUT_SHARE",
    "ProtocolError",
    "SessionTranscript",
    "TcpChannel",
    "dealer_for_circuit",
    "drive",
    "encode_frame",
    "evaluate_steps",
    "first_steps",
    "garble_steps",
    "gmw_steps",
    "open_steps",
    "recorded",
    "recv_frame",
    "release_steps",
    "reveal_steps",
    "run_pair",
    "send_frame",
]
