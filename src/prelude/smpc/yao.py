"""Garbled comparator cells and a key-sum zero test over them.

Party 1, the holder, garbles and party 0, the querier, evaluates, over the
per-entry comparator template (:mod:`prelude.circuits`) run as ``lanes``
instances, one per table entry.  Only yao's level of the template, its
2w cross gates, is garbled: gate g is the AND of querier input bit g with
a bit b the holder knows in the clear.  The rest of the
template, the OR over the comparator cells, is never garbled; the querier
needs only the value released where it is 0, and a sum of keys decides
that instead.

Labels.  Bit g of the querier's word
(:meth:`prelude.circuits.BatchQueryCircuit.word`), input g, has two
128-bit labels A0 and A1, and cross gate g reads the labels of input g.
The querier receives the label its bit selects by a precomputed transfer
(:mod:`prelude.smpc.transfer`), one per input whatever the lane count,
since one querier rule feeds every lane.  The holder's word stays clear
and gets no labels.  No label carries a permute bit: the evaluator is the
querier, who knows the bit its label stands for.

Rows.  Each cross gate has one row T and one zero-key W0 per lane, under
a PRF F of the gate's labels, lane i and a bit: lane i's row is
T = F(A0, i, b) XOR F(A1, i, 0), and its zero-key W0 = F(A0, i, 0).  An
evaluator with input bit q computes F(Aq, i, 0) XOR q T.  That is W0
where q = 0, and F(A0, i, b) where q = 1, which is W0 exactly where
b = 0.  The lane count, which both parties know, picks F; the querier
learns k in the ack anyway, so the choice shows it nothing new.

- Label-keyed, from :data:`LABEL_KEYED_LANES` lanes on.  A0 and A1 are
  drawn independently, and each keys AES-128 over counter blocks:
  F(A, i, b) = AES_A(c(i, b)), lane i big-endian with the bit in the top
  byte.  The garbler builds a gate's rows over every lane with one ECB
  call under A0, on counter blocks whose top bytes a strided slice sets
  from its bits, then one CTR call under A1, counting from zero, over that
  output; one more CTR call under A0 over an accumulator adds the gate's
  zero-keys to the lane sums S0.  The evaluator makes one CTR call per
  gate over its accumulator, then adds the rows of the gates whose bit is
  1.
- Hashed, below it.  F(A, i, b) = H(A, j + b), where H is the fixed-key
  hash H(x, t) = pi(sigma(x) XOR t) XOR sigma(x) of Guo, Katz, Wang & Yu
  (IEEE S&P 2020), pi is AES-128 under a fixed public key, sigma is
  doubling in GF(2^128), and j = ``2 (g x lanes + i)`` is cross gate g's
  even tweak in lane i, so the bit takes the odd tweak beside it.
  A1 = A0 XOR delta for one delta per session, so a row's sigma(A0)
  terms cancel and sigma(A1) leaves sigma(delta): the garbler's three pi
  passes, at j, at j + b and under A1 at j, each take one AES call over
  every gate and lane, as does the evaluator's one.  A lane word holds lane
  i's 128 bits in bits [128 i, 128 i + 128), so sigma and the tweaks act
  on every lane at once.

The threshold.  A label-keyed gate costs four OpenSSL calls, each keyed
afresh, whatever the lane count, so at rule width 104 its 208 gates cost
about 1.6 ms before any lane; hashed rows cost big-int passes that grow
with the lanes.  Garble plus evaluate, medians of interleaved runs on a
2-CPU x86-64 host, timed on an earlier hashed construction that cost at
least as much as this one: at width 104 hashed rows take 0.5 ms at 1
lane and 1.9 ms at 20, and label-keyed ones 1.6 and 1.8 ms; the two
cross between 17 and 20 lanes, depending on the host's speed, and
label-keyed rows win at 20 in every run.  At width 4 they win from 8
lanes, and by little below.  So :data:`LABEL_KEYED_LANES` is 20, width
104's crossover, the width of a 5-tuple rule.  Label-keyed rows at every
lane count would cost the benchmark's small tables about 0.8 ms a
session: yao sessions went 22.6 -> 23.6 ms on ``wan-table`` (8 entries)
and 1.09 -> 1.90 ms on ``install-churn`` (at most 12), medians of ten
alternating 25 s pairs.

The zero test.  Per lane the garbler XORs the zero-keys of the lane's cross
gates into a sum S0 and the evaluator XORs its keys into S.  A cross gate
that reads 1 adds to S the offset F(A0, i, 1) XOR F(A0, i, 0), which only
the garbler knows, so S equals S0 exactly when none does, barring a
2^-128 chance.  A rule's pinned-one and pinned-zero bits
are disjoint, so no comparator cell has both of its products at 1, and
every cross gate reads 0 exactly when every cell does: when the two rules
overlap.  This is the OT-based private equality test of Pinkas, Schneider
& Zohner (USENIX Security 2014), in which the receiver XORs the strings it
chose, applied to ternary cells.

The release (:func:`release_steps`, :func:`open_steps`).  Per lane the
holder sends its value followed by a tag of at least 80 zero bits, one
16-byte block under the pad H(S0, release tweak + lane).  The evaluator
removes H(S, ...) and keeps the value where the tag reads zero; anywhere
else it opens the fallback, the dummy identifier.  Release tweaks lie
above every garbling tweak.

Privacy.  The evaluator holds one label of each input, and each row is
padded by a PRF output under the label it lacks: F(A1, i, 0) where q = 0,
F(A0, i, b) where q = 1.  So T hides b, and where q AND b is 1 the key it
computes, F(A0, i, 1), is a PRF output under a label it lacks, as is W0.
Label-keyed labels are independent AES keys.  Hashed labels differ by
delta, which the evaluator never holds: the pads are H(A0 XOR delta, j)
and H(A1 XOR delta, j + b), and since every tweak is distinct per gate,
lane and bit and lies below the release tweaks, both are pseudorandom to
it under H's tweakable correlation robustness.  A permute bit hides a
wire's value from an evaluator that must not learn it; here every garbled
gate reads one label, of an input the evaluator owns, so taking its row
by that bit tells it nothing new.  Where its sum misses S0, the pad is
the hash of a key it does not hold: the value stays hidden and the tag
fails, so the lane opens to the dummy, as where the rules are distinct.
The tables' size is fixed by the template and the lane count alone, and
the garbler sees only the querier's masked choice bits.

AES comes from the OpenSSL that CPython's ``hashlib`` already loads
(:mod:`prelude.smpc.aes`).  The tables depend only on the template and the
holder's bits, so they travel during setup, one row per cross gate and
lane, by gate, then lane.  The online phase is one round trip for the
querier's labels and then the release, a second frame from the garbler
and so a second round.  The querier's masked choice bits need no k, so
they go out with its envelope (:func:`~prelude.smpc.dealer.first_steps`),
and the holder sends the ack, the tables, the labels and the release in
the one flight back: a session takes two one-way flights.
"""

from __future__ import annotations

from typing import Sequence

from prelude.smpc.aes import Aes128, Aes128Ecb, pinned
from prelude.smpc.channel import (
    MSG_GARBLED_TABLES,
    MSG_LABELS,
    MSG_OUTPUT_SHARE,
    recv_exact,
    send_frame,
)
from prelude.smpc.dealer import DealerMaterial
from prelude.smpc.shares import int_to_bits
from prelude.smpc.transfer import (
    LABEL_BITS,
    LABEL_BYTES,
    choose_steps,
    send_steps,
    to_lanes,
)

# pi: AES-128 under a fixed, public key
_PI = Aes128Ecb(b"prelude-halfgate")
# From this many lanes on the rows are label-keyed, below it hashed: the
# crossover at rule width 104 (see the module docstring).
LABEL_KEYED_LANES = 20
# Release tweaks start here, above every garbling tweak of any session.
_RELEASE_TWEAK = 1 << 96
# A released value is followed by at least this many zero bytes, its tag.
_TAG_BYTES = 10
_GF128_REDUCE = 0x87  # x^128 = x^7 + x^2 + x + 1


def _lane_word(label: int, n: int) -> int:
    """The int that holds ``label`` in each of ``n`` lanes."""
    return int.from_bytes(label.to_bytes(LABEL_BYTES, "little") * n, "little")


def _lane_ones(lanes: int) -> int:
    """The int whose every lane holds 1: multiplying by it copies a label."""
    return _lane_word(1, lanes)


def _double(x: int, ones: int) -> int:
    """sigma: every 128-bit lane of ``x`` doubled in GF(2^128).

    ``ones`` is :func:`_lane_ones` of the lane count.  A lane's top bit,
    shifted into the next lane's bit 0, is cleared there and sets the
    reduction constant in its own lane instead.
    """
    carry = (x >> (LABEL_BITS - 1)) & ones
    return (x << 1) ^ (carry << LABEL_BITS) ^ (carry * _GF128_REDUCE)


def _lane_index(n: int) -> int:
    """Lane i holding i, for each of ``n`` lanes."""
    return int.from_bytes(
        b"".join([i.to_bytes(LABEL_BYTES, "little") for i in range(n)]),
        "little")


def _fold(word: int, count: int, width: int) -> int:
    """The XOR of the ``count`` fields of ``width`` bits that ``word`` holds."""
    while count > 1:
        half = count // 2
        word = (word & ((1 << half * width) - 1)) ^ (word >> half * width)
        count -= half
    return word


def _chosen_rows(bits: int, n: int, tables: bytes, lanes: int) -> int:
    """The XOR of the rows of every gate g whose bit g of ``bits`` is 1."""
    size = LABEL_BYTES * lanes
    rows = 0
    for g in range(n):
        if bits >> g & 1:
            rows ^= int.from_bytes(tables[size * g : size * (g + 1)],
                                   "little")
    return rows


# --------------------------------------------------------------------------
# hashed rows, below LABEL_KEYED_LANES lanes


def _hash_inputs(labels: int, n: int, lanes: int) -> bytes:
    """sigma(label) XOR the tweak in every lane of every gate, gate by gate.

    Gate g reads label g of the ``n`` labels held here, field g of
    ``labels``, and its lane i the even tweak j = 2 (g x lanes + i).
    """
    size = LABEL_BYTES * lanes
    # sigma of all n labels in one doubling; gate g's hash input copies
    # its 16 bytes to every lane
    doubled = _double(labels, _lane_ones(n)).to_bytes(LABEL_BYTES * n,
                                                      "little")
    step = 2 * lanes * _lane_ones(lanes)
    tweak = 2 * _lane_index(lanes)
    words = []
    for at in range(0, LABEL_BYTES * n, LABEL_BYTES):
        word = int.from_bytes(doubled[at : at + LABEL_BYTES] * lanes, "little")
        words.append((word ^ tweak).to_bytes(size, "little"))
        tweak += step
    return b"".join(words)


def _key_sums(labels: int, n: int, keys: int, lanes: int) -> int:
    """Each lane's XOR of one key H(A, j) per gate.

    ``keys`` holds every gate's keys without their sigma(A) terms, one word
    per gate.  A gate's sigma(A) is the same in every lane, so those terms
    add up to sigma of the XOR of the ``n`` labels, copied to every lane.
    """
    return (_fold(keys, n, LABEL_BITS * lanes)
            ^ _lane_word(_double(_fold(labels, n, LABEL_BITS), 1), lanes))


def _garble(labels: int, n: int, delta: int, clear: int,
            lanes: int) -> tuple[bytes, int]:
    """Return (the hashed tables, the lane sums S0 of the zero-keys).

    ``labels`` holds the ``n`` querier inputs' labels A0, label g in field
    g, whose labels A1 are A0 XOR ``delta``, and ``clear`` the holder's
    level-1 word, gate g's lanes in field g.
    """
    blocks = n * lanes  # the (gate, lane) pairs
    size = LABEL_BYTES * blocks
    shift = _lane_word(_double(delta, 1), blocks)  # sigma(A1) ^ sigma(A0)
    inputs = _hash_inputs(labels, n, lanes)  # sigma(A0) ^ j
    # sigma(A0) ^ (j + b): j is even, so b lands in each block's low bit
    low = (int.from_bytes(inputs[::LABEL_BYTES], "little")
           ^ int.from_bytes(int_to_bits(clear, blocks), "little"))
    odd = bytearray(inputs)
    odd[::LABEL_BYTES] = low.to_bytes(blocks, "little")
    one = (int.from_bytes(inputs, "little") ^ shift).to_bytes(size, "little")
    # T = H(A0, j + b) ^ H(A1, j): the sigma(A0) terms cancel, and
    # sigma(A1)'s leaves the shift
    zero_keys, at_b, at_one = (int.from_bytes(_PI.encrypt(data), "little")
                               for data in (inputs, odd, one))
    return ((at_b ^ at_one ^ shift).to_bytes(size, "little"),
            _key_sums(labels, n, zero_keys, lanes))


def _evaluate(labels: int, n: int, bits: int, tables: bytes,
              lanes: int) -> int:
    """The lane sums S of the keys the ``n`` labels unlock under the hashed
    tables, label g, in field g of ``labels``, being the one of input bit
    g of ``bits``."""
    keys = int.from_bytes(_PI.encrypt(_hash_inputs(labels, n, lanes)),
                          "little")
    return _key_sums(labels, n, keys, lanes) ^ _chosen_rows(bits, n, tables,
                                                            lanes)


# --------------------------------------------------------------------------
# label-keyed rows, from LABEL_KEYED_LANES lanes on


def _counters(lanes: int) -> bytearray:
    """The counter blocks c(i, 0) of ``lanes`` lanes: lane i big-endian."""
    return bytearray(b"".join([i.to_bytes(LABEL_BYTES, "big")
                               for i in range(lanes)]))


def _garble_keyed(zero: int, one: int, n: int, clear: int,
                  lanes: int) -> tuple[bytearray, int]:
    """Return (the label-keyed tables, the lane sums S0 of the zero-keys).

    ``zero`` and ``one`` hold the ``n`` querier inputs' labels A0 and A1,
    label g in field g, and ``clear`` the holder's level-1 word, gate g's
    lanes in field g.
    """
    size = LABEL_BYTES * lanes
    # every row starts as its counter blocks c(i, b), the holder's bit for
    # gate g and lane i in the top byte of block g x lanes + i
    tables = _counters(lanes) * n
    tables[::LABEL_BYTES] = int_to_bits(clear, n * lanes)
    sums = bytearray(size)
    keys = bytearray(zero.to_bytes(LABEL_BYTES * n, "little")
                     + one.to_bytes(LABEL_BYTES * n, "little"))
    pins = [pinned(buf) for buf in (tables, sums, keys)]
    (_, t_at), (_, s_at), (_, a0) = pins
    a1 = a0 + LABEL_BYTES * n
    ecb, ctr = Aes128("ecb"), Aes128("ctr")
    for g in range(n):
        row, key = t_at + size * g, LABEL_BYTES * g
        ecb.encrypt(a0 + key, row, row, size)  # AES_A0(c(i, b))
        ctr.encrypt(a1 + key, row, row, size)  # ^ AES_A1(c(i, 0))
        ctr.encrypt(a0 + key, s_at, s_at, size)  # S0 ^= AES_A0(c(i, 0))
    return tables, int.from_bytes(sums, "little")


def _evaluate_keyed(labels: int, n: int, bits: int, tables: bytes,
                    lanes: int) -> int:
    """The lane sums S of the keys the ``n`` labels unlock under the
    label-keyed tables, label g, in field g of ``labels``, being the one of
    input bit g of ``bits``."""
    size = LABEL_BYTES * lanes
    sums = bytearray(size)
    keys = bytearray(labels.to_bytes(LABEL_BYTES * n, "little"))
    pins = [pinned(buf) for buf in (sums, keys)]
    (_, s_at), (_, at) = pins
    ctr = Aes128("ctr")
    for key in range(at, at + LABEL_BYTES * n, LABEL_BYTES):
        ctr.encrypt(key, s_at, s_at, size)  # S ^= AES_A(c(i, 0))
    return int.from_bytes(sums, "little") ^ _chosen_rows(bits, n, tables,
                                                         lanes)


def garble_steps(circuit, word: int, setup: DealerMaterial, rng):
    """Garbler's (party 1's) side of one run of the template, over the
    lanes ``setup`` was dealt for.

    ``word`` is the holder's clear word, gate g's lanes in field g
    (:meth:`~prelude.circuits.BatchQueryCircuit.word`).  Returns the lane
    sums S0 of the zero-keys, lane i in bits [128 i, 128 i + 128), under
    which :func:`release_steps` releases values.
    """
    setup.check(1, circuit, "yao")
    if rng is None:
        raise ValueError("garbler needs an rng")
    lanes = setup.lanes
    circuit.check_word(1, word, lanes)
    n = 2 * circuit.width
    if lanes < LABEL_KEYED_LANES:
        delta = rng.getrandbits(LABEL_BITS)
        zero = rng.getrandbits(LABEL_BITS * n)  # input g's label in lane g
        one = zero ^ _lane_word(delta, n)
        tables, sums = _garble(zero, n, delta, word, lanes)
    else:
        zero = rng.getrandbits(LABEL_BITS * n)
        one = rng.getrandbits(LABEL_BITS * n)
        tables, sums = _garble_keyed(zero, one, n, word, lanes)
    yield from send_frame(MSG_GARBLED_TABLES, tables)
    yield from send_steps(zero, one, n, LABEL_BYTES, setup.transfer,
                          MSG_LABELS)
    return sums


def evaluate_steps(circuit, word: int, setup: DealerMaterial):
    """Evaluator's (party 0's) side of one run of the template, over the
    lanes ``setup`` was dealt for.

    ``word`` is the querier's word, gate g's bit in bit g
    (:meth:`~prelude.circuits.BatchQueryCircuit.word`), whose masked
    transfer choices the evaluator has sent already
    (:func:`~prelude.smpc.dealer.first_steps`).  Returns the lane sums S of
    its keys, with which :func:`open_steps` opens the released values.
    """
    setup.check(0, circuit, "yao")
    lanes = setup.lanes
    circuit.check_word(0, word, lanes)
    n = 2 * circuit.width
    tables = yield from recv_exact(MSG_GARBLED_TABLES, LABEL_BYTES * lanes * n)
    chosen = yield from choose_steps(word, n, LABEL_BYTES, setup.transfer,
                                     MSG_LABELS)
    evaluate = _evaluate if lanes < LABEL_KEYED_LANES else _evaluate_keyed
    return evaluate(chosen, n, word, tables, lanes)


# --------------------------------------------------------------------------
# releasing values under the key sums


def _release_pads(sums: int, lanes: int) -> int:
    """H(S_i, release tweak + i) in lane i, for the sum S_i of lane i."""
    ones = _lane_ones(lanes)
    doubled = _double(sums, ones)
    tweaks = _RELEASE_TWEAK * ones + _lane_index(lanes)
    return int.from_bytes(_PI.encrypt((doubled ^ tweaks).to_bytes(
        LABEL_BYTES * lanes, "little")), "little") ^ doubled


def _check_size(size: int) -> None:
    if size > LABEL_BYTES - _TAG_BYTES:
        raise ValueError(f"released values are at most "
                         f"{LABEL_BYTES - _TAG_BYTES} bytes")


def release_steps(
    sums: int,
    values: Sequence[bytes],
):
    """Garbler: release ``values[i]`` to an evaluator whose sum in lane i is S0's.

    One frame in the release round carries one 16-byte block per lane: the
    value, then zero bytes as its tag, under the pad of lane i's sum.  Every
    value must have the same length, at most 6 bytes.
    """
    size = len(values[0]) if values else 0
    _check_size(size)
    if set(map(len, values)) - {size}:
        raise ValueError("released values must have equal length")
    lanes = len(values)
    plain = to_lanes(b"".join(values), lanes, size)
    payload = (_release_pads(sums, lanes) ^ plain).to_bytes(
        LABEL_BYTES * lanes, "little")
    yield from send_frame(MSG_OUTPUT_SHARE, payload)


def open_steps(sums: int, lanes: int, fallback: bytes):
    """Evaluator: open the value of each lane whose sum is the garbler's.

    Returns one value per lane, as long as ``fallback``, or ``fallback``
    for a lane whose tag does not read zero.
    """
    size = len(fallback)
    _check_size(size)
    payload = yield from recv_exact(MSG_OUTPUT_SHARE, LABEL_BYTES * lanes)
    plain = (int.from_bytes(payload, "little")
             ^ _release_pads(sums, lanes)).to_bytes(len(payload), "little")
    tag = bytes(LABEL_BYTES - size)
    return [plain[at : at + size]
            if plain[at + size : at + LABEL_BYTES] == tag else fallback
            for at in range(0, len(plain), LABEL_BYTES)]
