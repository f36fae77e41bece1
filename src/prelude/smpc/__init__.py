"""Two-party semi-honest secure computation of the rule comparator.

Two interchangeable backends run the one comparator template
(:class:`prelude.circuits.BatchQueryCircuit`):

- :func:`gmw_steps` works on XOR shares, level by level, each level on
  its own piece of dealer material: one-time truth tables over pairs of
  comparator cells for the lookup level, read at the querier's symbols by
  a shift of Z3, and shares of the products of each OR-tree gate's input
  masks, for gates of up to four inputs; its online round count equals
  the template's AND depth.
- :func:`garble_steps` and :func:`evaluate_steps` garble only the w
  comparator cells, two rows each, one label per cell reaching the
  querier by a 1-out-of-3 transfer on its symbol, and end with per-lane
  key sums that agree exactly when no cell reads 1; their online phase
  is a single round trip.  Every row has one formula under a PRF of the
  cell's labels.  From 23 lanes on each label keys AES and OpenSSL does
  every per-lane XOR of a cell's rows; below that, where a cell's fixed
  calls would cost more than they save, the PRF is a fixed-key hash over
  every lane at once (:mod:`prelude.smpc.yao`).

Under either backend the querier's first online frame goes out before it
learns the lane count (:func:`first_steps`): its symbols of Z3 shifted by
the one piece of its dealer material that no lane count changes, an int
of 2w bits the dealer draws first (:func:`first_piece`), which gmw's
lookup tables and yao's label transfer both read.  A holder refuses, with
a :class:`ProtocolError` naming the cell, one that reads the unused
symbol 3 (:func:`read_shift`).

Both then release to party 0, in one more round, one value per lane where
the output bit reads 0 and another where it reads 1: gmw by a precomputed
transfer whose choice bit is party 0's share and whose pair party 1 orders
by its own (:func:`reveal_steps`), yao by sending the first value with a
zero tag under a pad keyed by party 1's key sum, which opens only under an
equal sum, so that party 0 takes the second value, the dummy, wherever the
tag fails (:func:`release_steps` and :func:`open_steps`).  Party 0 learns
one value per lane and nothing of the other; party 1 sees only one-time
padded bits.  The precomputed transfer (:mod:`prelude.smpc.transfer`), in
its 1-out-of-3 form, also carries yao's input labels.

:func:`dealer_for_circuit` deals one run of the template, its level plan
over ``lanes`` entries, at least one, from a 16-byte seed for each party
whose material has uniform pieces that k sizes, and each party's
:class:`~prelude.smpc.dealer.DealerMaterial` holds that plan and its
backend; every backend refuses material dealt for the other party, for
the other backend or for another plan with a :class:`ValueError` naming
both plans.  A run takes from its material
what the material fixes: the lane count, and the size of the values a
gmw release carries.

The template runs over ``lanes`` entries at once, every lane of a gate
packed into one integer.  Party 0 passes its word, which
:meth:`prelude.circuits.BatchQueryCircuit.word` builds from its rule and
every backend range-checks the same way.  Party 1 holds one row of text
per entry (:meth:`prelude.circuits.BatchQueryCircuit.row`), and each
backend lays the rows out itself: gmw takes the word
:meth:`~prelude.circuits.BatchQueryCircuit.word_from_rows` makes of them,
and :func:`garble_steps` takes the rows, checks them and reads their bits
in the order its tables want, with no word between.  Party 1's bits are
clear (see :mod:`prelude.circuits`): neither backend shares, masks or
labels them, and they feed only the first level, yao's cells or gmw's
lookup tables.
Party 0's word is broadcast, one bit per gate that every lane reads, so
each cell takes one shift, and under yao one label transfer, whatever the
lane count, and the querier sends two bits per cell; everything else
costs what the template unrolled ``lanes`` times would.

Every party is a step generator over frames: it yields each frame it
sends and checks each one it receives with :func:`expect`.
:func:`run_pair` runs a session's two parties against each other in the
calling thread, with an injectable one-way delay, and :func:`drive` runs
one party over a real socket, the only channel that encodes frames.  No
step keeps accounts: ``run_pair`` and ``drive`` record every frame they
move for a party in that party's :class:`SessionTranscript`, if they are
given one, which takes each frame's phase from its kind and keeps
running byte and online round counters, not the frames.  Dealer material travels in no frame;
whoever deals it adds its size to the transcript's setup bytes.
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
    RECV,
    ProtocolError,
    TcpChannel,
    drive,
    encode_frame,
    expect,
    run_pair,
)
from prelude.smpc.dealer import (
    dealer_for_circuit,
    first_piece,
    first_steps,
    read_shift,
)
from prelude.smpc.gmw import gmw_steps, reveal_steps
from prelude.smpc.transcript import SessionTranscript
from prelude.smpc.yao import (
    evaluate_steps,
    garble_steps,
    open_steps,
    release_steps,
)
