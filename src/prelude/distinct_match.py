"""Privacy-preserving rule matching between two exchange points.

One side (the querier) holds a single ternary rule; the other (the holder)
keeps a table of installed rules partitioned by BGP prefix, each tagged with
the identifier of the next deflection on its path.  A query reveals to the
querier exactly the set of next-hop identifiers whose rules overlap the
queried rule, and nothing else: not which table positions matched, not how
the non-matching rules look, and the holder learns nothing about the queried
rule beyond its arrival and target prefix.

Session flow, all on one framed channel:

1. querier sends a cleartext envelope: a 5-byte header, the rule width
   as 4 bytes and the backend's index in ``BACKENDS`` as 1, then the
   prefix in UTF-8 (15 bytes for ``10.0.0.0/8``).  Its first online frame
   follows at once, since it needs no k: its word (see 3) under the
   piece of dealer material the session's dealer dealt when the session
   started, gmw's shifted symbols or yao's masked label choices
   (:func:`~prelude.smpc.dealer.first_steps`).  The holder aborts with a
   ProtocolError naming the fault if the envelope is shorter than its
   header, its width is 0, its backend index is unknown, its prefix is
   not UTF-8, or the width differs from its table's; the padded frame it
   leaves unread tells it nothing.  A gmw holder that reads the frame
   refuses it with a ProtocolError if a cell reads the unused symbol 3;
2. holder answers with a 3-byte ack: its entry count k for the prefix as
   2 bytes and its identifier width in bits as 1.  The querier aborts
   with a ProtocolError naming the fault if the ack is not 3 bytes, k
   exceeds ``MAX_ENTRIES`` or the identifier width is not its own; a
   holder whose table exceeds ``MAX_ENTRIES`` refuses the query itself.
   k == 0 ends the session with an empty result and no circuit work;
3. otherwise the holder freshly permutes its entries, so positions carry no
   information, and both sides compute entry by entry whether the queried
   rule is distinct from the stored one under the chosen secure backend.
   Each side's rules become one word of pinned-one and
   pinned-zero bits, one row of text per rule
   (:meth:`~prelude.circuits.BatchQueryCircuit.row`); a bit proves two
   rules distinct when one pins it to 1 and the other to 0.  The querier
   formats its one rule's row each session.  The holder formatted each
   entry's row, and encoded its identifier, when it registered the entry
   (:class:`SdxMatchService`), so a session shuffles those pairs, joins
   the rows into its word
   (:meth:`~prelude.circuits.BatchQueryCircuit.word_from_rows`) and
   releases the identifiers in the same order.  The querier's word is a
   secret input, while the holder's stays in its clear and feeds only
   yao's cross gates or gmw's lookup tables (see :mod:`prelude.circuits`),
   so the holder's rules are never labelled, masked or shared.
   Every entry runs the same per-entry template, the comparator
   (:func:`build_batch_query`), and the backends evaluate it over k lanes,
   lane i being the i-th shuffled entry; the querier's rule feeds every
   lane.  Lane i's output, the distinct bit, ends up XOR-shared under gmw.
   Under yao only the comparator's cross gates are garbled, and the
   querier ends up with a key sum per lane that equals the holder's
   exactly when no cross gate reads 1, that is, when the rules overlap.
   The holder sends its ack and its first frames in one flight, so a yao
   session takes two one-way flights and a gmw session two more than its
   AND depth rounded up to even (:mod:`prelude.smpc.gmw`);
4. in the release round the querier receives, per entry, the entry's
   identifier where the rules overlap and the dummy where they are
   distinct.  Under gmw the holder offers both, by one precomputed
   transfer per entry whose choice bit is the querier's share of the
   distinct bit and whose pair the holder orders by its own.  Under yao
   it sends the identifier with an all-zero tag under a pad keyed by its
   own key sum, and a lane whose tag does not open to zero under the
   querier's sum opens to the dummy.  Either way the querier learns one
   value per entry and nothing of the other, and the holder learns
   nothing back.  The querier deduplicates the released values and drops
   the dummy before it decodes any identifier.

One template is built per rule width and kept for the life of the
process; nothing is built per k.

Both parties exist only as step generators over frames:
:meth:`SdxMatchService.serve_steps` and the querier's ``_querier_steps``.
:class:`LoopbackEndpoint` runs the two against each other with
:func:`~prelude.smpc.run_pair`, handing the holder's side the endpoint's
holder stream, which shuffles and garbles, so a session runs in the
calling thread and starts no thread; :meth:`SdxMatchService.serve_query`
drives the holder's side over a blocking channel, such as a socket.
Neither side keeps accounts.  A session is counted once, from the
querier: the endpoint wraps the querier's steps in
:func:`~prelude.smpc.recorded`, and the session's dealer adds the size of
the querier's material to the same transcript's setup bytes, so a
session's :class:`SessionStats` come from the querier's side.  Every
holder frame is a querier frame going the other way, so nothing records
the holder.
"""

from __future__ import annotations

import logging
import random
import struct
import threading
from dataclasses import dataclass

from prelude.circuits import BatchQueryCircuit, build_batch_query
from prelude.rules import TernaryRule
from prelude.smpc import (
    MSG_ENVELOPE,
    MSG_ENVELOPE_ACK,
    ProtocolError,
    SessionTranscript,
    dealer_for_circuit,
    drive,
    evaluate_steps,
    first_steps,
    garble_steps,
    gmw_steps,
    open_steps,
    recorded,
    recv_frame,
    release_steps,
    reveal_steps,
    run_pair,
    send_frame,
)
from prelude.smpc.channel import recv_exact

log = logging.getLogger(__name__)

SDX_ID_BITS = 16
AS_ID_BITS = 32
HOP_ID_BITS = SDX_ID_BITS + AS_ID_BITS
# a next-hop identifier on the wire: the exchange, then the AS
_HOP = struct.Struct(">HI")
HOP_ID_BYTES = _HOP.size

BACKENDS = ("gmw", "yao")

# The envelope's header, the rule width and the backend's index in
# BACKENDS, before the prefix in UTF-8; the ack, k and the identifier width
# in bits.
_ENVELOPE = struct.Struct(">IB")
_ACK = struct.Struct(">HB")

# The largest k a querier accepts in the envelope ack, which it sizes its
# dealer material from before anything else checks it.  This is about 8x the
# largest table any test or workload runs; at rule width 104 a yao session
# of this size moves about 13.6 MB of garbled tables, the largest frame a
# channel accepts (``MAX_FRAME_BYTES`` in :mod:`prelude.smpc.channel`).
MAX_ENTRIES = 4096


@dataclass(frozen=True, order=True)
class NextHopId:
    """Where a deflected packet goes next: an AS reached at an SDX."""

    sdx_id: int
    as_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.sdx_id < (1 << SDX_ID_BITS):
            raise ValueError("sdx_id out of range")
        if not 0 <= self.as_id < (1 << AS_ID_BITS):
            raise ValueError("as_id out of range")

    def to_bytes(self) -> bytes:
        return _HOP.pack(self.sdx_id, self.as_id)

    @classmethod
    def from_bytes(cls, data: bytes) -> "NextHopId":
        return cls(*_HOP.unpack(data))


DUMMY_HOP = NextHopId((1 << SDX_ID_BITS) - 1, (1 << AS_ID_BITS) - 1)
_DUMMY_BYTES = DUMMY_HOP.to_bytes()


@dataclass(frozen=True)
class RuleEntry:
    """One installed rule as the holder stores it."""

    rule: TernaryRule
    next_hop: NextHopId
    owner: int
    prefix: str

    def __post_init__(self) -> None:
        if self.next_hop == DUMMY_HOP:
            raise ValueError("the dummy identifier cannot be a real next hop")


@dataclass(frozen=True)
class QueryResult:
    """Deduplicated next-hop identifiers of the overlapping remote rules."""

    hops: frozenset[NextHopId]

    def __contains__(self, hop: NextHopId) -> bool:
        return hop in self.hops

    def __len__(self) -> int:
        return len(self.hops)


class QueryAborted(Exception):
    """The session failed before a result was reconstructed."""


@dataclass
class SessionStats:
    """Counters one completed query session leaves behind."""

    k: int
    and_depth: int
    online_rounds: int
    # one-way flights on the longest causal chain of frames
    flights: int
    setup_bytes: int
    online_bytes: int
    online_wall_time: float


# --------------------------------------------------------------------------
# per-entry template


_template_lock = threading.Lock()
_templates: dict[int, BatchQueryCircuit] = {}


def query_template(rule_width: int) -> BatchQueryCircuit:
    """The template for a rule width, built on first use and then kept."""
    with _template_lock:
        template = _templates.get(rule_width)
        if template is None:
            template = _templates[rule_width] = build_batch_query(rule_width)
    return template


def _parse_envelope(payload: bytes) -> tuple[str, int, str]:
    """(prefix, rule width, backend) of a querier's envelope.

    Raises ProtocolError naming the fault for a payload shorter than its
    header, a rule width of 0, an unknown backend index or a prefix that is
    not UTF-8.
    """
    if len(payload) < _ENVELOPE.size:
        raise ProtocolError(f"envelope of {len(payload)} bytes is shorter "
                            f"than its {_ENVELOPE.size}-byte header")
    width, index = _ENVELOPE.unpack_from(payload)
    if not width:
        raise ProtocolError("envelope rule width 0 is not positive")
    if index >= len(BACKENDS):
        raise ProtocolError(f"envelope names unknown backend index {index}")
    try:
        prefix = payload[_ENVELOPE.size:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"envelope prefix is not UTF-8: {exc}") from None
    return prefix, width, BACKENDS[index]


# --------------------------------------------------------------------------
# holder


class SdxMatchService:
    """One exchange point's rule table and its query-serving side.

    Each prefix's table maps an entry to what a session needs of it: its
    holder row (:meth:`~prelude.circuits.BatchQueryCircuit.row`) and its
    6-byte identifier, both built when the entry is registered and
    dropped with it.  Equal entries share one table slot, which stays until
    each of their registrations is dropped, so two rules that install the
    same entry keep it while either is active.  Registrations are
    serialized behind a lock; queries snapshot the table and then run
    without holding it, so a slow session never blocks writers or other
    queries.
    """

    def __init__(self, sdx_id: int) -> None:
        self.sdx_id = sdx_id
        self._lock = threading.RLock()
        self._tables: dict[str, dict[RuleEntry, tuple[str, bytes]]] = {}
        self._registrations: dict[RuleEntry, int] = {}

    # -------------------------------------------------------- table writes

    def register(self, entry: RuleEntry) -> None:
        """Add an entry; every rule under one prefix must have the same width.

        Raises ValueError, leaving the table as it was, for an entry whose
        width differs from the rules already registered under its prefix.
        """
        with self._lock:
            table = self._tables.setdefault(entry.prefix, {})
            if table:
                width = next(iter(table)).rule.width
                if entry.rule.width != width:
                    raise ValueError(
                        f"rule width {entry.rule.width} does not match rule "
                        f"width {width} of the entries under {entry.prefix}")
            count = self._registrations.get(entry, 0)
            if not count:
                row = query_template(entry.rule.width).row(1, entry.rule)
                table[entry] = (row, entry.next_hop.to_bytes())
            self._registrations[entry] = count + 1

    def deregister(self, entry: RuleEntry) -> None:
        """Drop one registration of an entry, and the entry with its last."""
        with self._lock:
            count = self._registrations.pop(entry, 0)
            if not count:
                log.warning("deregister of unknown entry for %s", entry.prefix)
            elif count > 1:
                self._registrations[entry] = count - 1
            else:
                del self._tables[entry.prefix][entry]

    def entries_for(self, prefix: str) -> list[RuleEntry]:
        with self._lock:
            return list(self._tables.get(prefix, {}))

    # -------------------------------------------------------- query serving

    def serve_query(self, channel, dealer, rng: random.Random) -> None:
        """Run the holder side of one query session to completion."""
        drive(self.serve_steps(dealer, rng), channel)

    def serve_steps(self, dealer, rng: random.Random):
        """Step generator of :meth:`serve_query`; ``rng`` shuffles the
        entries and, under yao, garbles."""
        payload = yield from recv_frame(MSG_ENVELOPE)
        prefix, width, backend = _parse_envelope(payload)

        with self._lock:
            table = self._tables.get(prefix, {})
            held = next(iter(table)).rule.width if table else width
            prepared = list(table.values())
        if held != width:
            raise ProtocolError(
                f"query rule width {width} does not match the table's rule "
                f"width {held}")
        k = len(prepared)
        if k > MAX_ENTRIES:
            raise ProtocolError(f"table of {k} entries under {prefix} "
                                f"exceeds the cap of {MAX_ENTRIES} entries")
        yield from send_frame(MSG_ENVELOPE_ACK, _ACK.pack(k, HOP_ID_BITS))
        if k == 0:
            return

        rng.shuffle(prepared)
        rows, ids = zip(*prepared)
        template = query_template(width)
        # one lane per shuffled entry
        word = template.word_from_rows(rows)
        material = dealer.material(template, backend, 1, k)
        if backend == "gmw":
            shares = yield from gmw_steps(template, 1, word, material)
            # A distinct bit reads 0 where the rules overlap: release the
            # entry's identifier there, the dummy where it reads 1.
            yield from reveal_steps(shares, material, receive=False,
                                    values=ids, dummy=_DUMMY_BYTES)
            return
        sums = yield from garble_steps(template, word, material, rng)
        yield from release_steps(sums, ids)


# --------------------------------------------------------------------------
# querier


def _querier_steps(local: TernaryRule, prefix: str, backend: str, dealer):
    """The querier's side of one session; returns the k released values,
    6 bytes each, the dummy's included."""
    template = query_template(local.width)
    word = template.word(0, [local])
    header = _ENVELOPE.pack(local.width, BACKENDS.index(backend))
    yield from send_frame(MSG_ENVELOPE, header + prefix.encode("utf-8"))
    yield from first_steps(template, word, dealer.first)
    k, id_width = _ACK.unpack(
        (yield from recv_exact(MSG_ENVELOPE_ACK, _ACK.size)))
    if k > MAX_ENTRIES:
        raise ProtocolError(
            f"envelope ack k {k} exceeds the cap of {MAX_ENTRIES} entries")
    if id_width != HOP_ID_BITS:
        raise ProtocolError(
            f"holder uses an incompatible identifier width {id_width}")
    if k == 0:
        return []

    material = dealer.material(template, backend, 0, k)
    if backend == "gmw":
        shares = yield from gmw_steps(template, 0, word, material)
        return (yield from reveal_steps(shares, material, receive=True))
    sums = yield from evaluate_steps(template, word, material)
    return (yield from open_steps(sums, k, _DUMMY_BYTES))


class _SessionDealer:
    """Hands both parties of one session their correlated setup material
    from the endpoint's dealer stream ``rng``, adding the size of the
    querier's to the setup bytes of the session's :attr:`transcript` as it
    hands it out.

    The material no lane count changes is dealt when the session starts,
    for the querier's ``circuit`` and ``backend``, and kept as :attr:`first`:
    2w bits of gmw's shifts or yao's choice bits, 26 bytes at rule width
    104.  It pads the querier's first frame, which it sends before it
    learns k.  :meth:`material` deals over k lanes once, under a lock, so
    the two parties may ask in either order, extending :attr:`first` on
    the same stream.  It refuses, with a ProtocolError naming both, a
    backend other than :attr:`first`'s, which a holder asks for when the
    envelope's backend index was changed in transit.  The transcript
    counts the querier's material once, when it is dealt in full, so an
    empty session counts none.
    """

    def __init__(self, rng: random.Random, circuit, backend: str) -> None:
        self._rng = rng
        self._lock = threading.Lock()
        self.first = dealer_for_circuit(circuit, backend, rng, lanes=0)[0]
        self._materials = None
        self.transcript = SessionTranscript()

    def material(self, circuit, backend: str, party: int, lanes: int):
        if backend != self.first.backend:
            raise ProtocolError(f"{backend} material asked of a session "
                                f"dealt for {self.first.backend}")
        with self._lock:
            if self._materials is None:
                self._materials = dealer_for_circuit(
                    circuit, backend, self._rng, lanes=lanes,
                    first=self.first, size=HOP_ID_BYTES)
            material = self._materials[party]
            if party == 0:
                self.transcript.setup_bytes += material.serialized_size
        return material


class LoopbackEndpoint:
    """A holder queried in the calling thread, one session per query.

    The endpoint plays the trusted dealer for its sessions.  It keeps two
    random streams for its life, both drawn from ``seed``: the dealer's,
    and the holder's, which shuffles and garbles.  So a seeded endpoint
    produces reproducible sessions when queries are issued serially, an
    aborted one included.  A session's envelope is 5 bytes and its
    prefix, and the ack 3 bytes.
    """

    def __init__(self, service: SdxMatchService, seed: int = 0,
                 one_way_delay: float = 0.0) -> None:
        self.service = service
        seeds = random.Random(seed)
        self._dealer_rng = random.Random(seeds.getrandbits(64))
        self._holder_rng = random.Random(seeds.getrandbits(64))
        self._delay = one_way_delay

    def query(
        self,
        local: TernaryRule,
        prefix: str,
        backend: str = "gmw",
        stats_out: list[SessionStats] | None = None,
    ) -> QueryResult:
        """Run one full query session; see module docstring for the flow."""
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        dealer = _SessionDealer(self._dealer_rng,
                                query_template(local.width), backend)
        transcript = dealer.transcript
        try:
            raw, _, flights = run_pair(
                recorded(_querier_steps(local, prefix, backend, dealer),
                         transcript),
                self.service.serve_steps(dealer, self._holder_rng),
                self._delay)
        except Exception as exc:
            # the first failure of either party
            raise QueryAborted(str(exc)) from exc

        if stats_out is not None:
            k = len(raw)
            stats_out.append(SessionStats(
                k=k,
                # the levels of the plan the backend ran
                and_depth=len(dealer.first.levels) if k else 0,
                online_rounds=transcript.online_rounds,
                flights=flights,
                setup_bytes=transcript.setup_bytes,
                online_bytes=transcript.online_bytes,
                online_wall_time=transcript.online_wall_time,
            ))
        return QueryResult(frozenset(NextHopId.from_bytes(value)
                                     for value in set(raw) - {_DUMMY_BYTES}))
