"""Per-exchange verifier nodes that veto forwarding-loop-inducing rules.

A member asks its exchange to activate a deflection rule: the request is
the member's :class:`DeflectionPolicy` (owner, exchange, rule, target,
prefix) and a hop budget, nothing more.  The exchange walks the deflected
traffic's BGP path, asks every exchange present on that path which of its
installed rules overlap the candidate (via the distinct-match primitive, so
the rule itself never leaves the verifier), and chases each reported
deflection onward.  Reaching a previously seen (exchange, AS) point means
the rule would close a loop; running out of hop budget with deflections
still unexplored is treated the same way, conservatively.  Accepted rules
are registered locally and the verifier subscribes at every exchange it
consulted so later removals, deactivations, and routing changes trigger
re-verification.

A registered rule's life is three steps of :class:`SdxNode`, each written
once.  *Settle* (``_settle``) walks the rule, activates it if it passes
and retires it if it fails while active.  *Retire* (``_retire``) takes a
rule out of the exchange's table, only if it is active, logs why, and
notifies the exchanges subscribed to it; a member's removal and a failed
re-walk both end this way.  *Re-walk* (``_rewalk``) settles again, in
rule-id order, each rule of a prefix that needs it when its turn comes:
after a notice, the active rules that consulted the notifying exchange;
after a BGP update, the rules whose deflection target's path moved.

The exploration never learns who owns a remote rule, only where the rule
would send the traffic.  It prunes a reported deflection when no member of
the reporting exchange other than the deflection target lies on the path
being walked: whoever owns that rule, the traffic cannot reach them here,
so the rule cannot fire.  For the verifier's own exchange the owners are
local knowledge and the filter is exact.

Every answer a walk gets is built by :func:`table_answer`, whether it comes
from an explicit rule set (:class:`StaticMatchView`) or from a live node's
table (:meth:`ControlPlane.query`); only a remote query over the ``smpc``
transport runs a two-party session instead, and it gives the same answer.
The rule and prefix are fixed during a walk and no table changes while it
runs, so a walk asks each exchange once and reuses that answer.

A rule's re-walks, after a removal notice or a BGP update, ask many
tables that have not changed since its last walk.  Every session over
``smpc`` carries a table tag, so each registry record keeps the last
answer every remote exchange gave it, with that table's tag, and asks
with it (:meth:`ControlPlane.query`); a first query asks with
:data:`~prelude.distinct_match.NO_ANSWER`, whose tag no table has.  A
holder whose tag still matches ends the session after its ack, and the
walk takes the answer it holds, which is exact, as an answer depends
only on the rule and the table.  The answers die with their record, so the
registry bounds them: at most one per other exchange.  Privacy: the
querier learns only whether a table changed between two of its own
queries, not how often, since each change draws a fresh random tag.  The
holder learns that a query repeats one it answered under its current
table, never the rule, and still logs ``query_served`` with only the
prefix, its table size and the asking exchange.
"""

from __future__ import annotations

import itertools
import logging
import threading
from dataclasses import dataclass, field, replace

from .bgpsim import (
    DeflectionPolicy,
    PolicyError,
    RibState,
    SdxSite,
    validate_policy,
)
from .distinct_match import (
    BACKENDS,
    NO_ANSWER,
    LoopbackEndpoint,
    NextHopId,
    QueryAborted,
    QueryResult,
    RuleEntry,
    SdxMatchService,
)
from .rules import TernaryRule, overlaps

log = logging.getLogger(__name__)

ACCEPT = "accept"
REJECT = "reject"

SAFE = "safe"
LOOP_DETECTED = "loop_detected"
BUDGET_EXHAUSTED = "budget_exhausted"
QUERY_FAILED = "query_failed"

DEFAULT_BUDGET = 6


# --------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Verdict:
    """An exchange's answer to one request: `SAFE` accepts, any other
    reason rejects."""

    reason: str
    closed_at: int | None = None
    rule_id: str | None = None

    def __post_init__(self) -> None:
        if self.closed_at is not None and self.reason != LOOP_DETECTED:
            raise ValueError("closed_at only accompanies a detected loop")

    @property
    def accepted(self) -> bool:
        return self.reason == SAFE

    @property
    def decision(self) -> str:
        return ACCEPT if self.accepted else REJECT


def rule_entry(policy: DeflectionPolicy) -> RuleEntry:
    """The table entry a policy installs at its exchange."""
    return RuleEntry(policy.rule, NextHopId(policy.sdx_id, policy.deflect_to),
                     policy.owner, policy.prefix)


# --------------------------------------------------------------------------
# exploration core


@dataclass(frozen=True)
class Exploration:
    """Outcome of walking one candidate rule's deflection consequences."""

    status: str
    closed_at: int | None
    queried: frozenset[int]


def explore_deflection(view, policy: DeflectionPolicy,
                       budget: int) -> Exploration:
    """Walk the policy's deflected path, chasing overlapping deflections.

    `view` supplies the verifier's knowledge: `path(prefix, asn)`,
    `sites_of(asn)`, `members(sdx_id)`, and
    `query(origin_sdx, target_sdx, rule, prefix)`, which returns (next hop,
    owner) pairs, the owner None for a remote exchange, or None when the
    query failed.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    state = _WalkState(view, policy)
    status, closed = state.walk(
        arrival=(policy.sdx_id, policy.deflect_to),
        visited=((policy.sdx_id, policy.owner),),
        budget=budget,
    )
    return Exploration(status, closed, frozenset(state.answers))


class _WalkState:
    def __init__(self, view, policy: DeflectionPolicy) -> None:
        self.view = view
        self.prefix = policy.prefix
        self.rule = policy.rule
        self.origin_sdx = policy.sdx_id
        # each queried exchange's answer, sorted by next hop
        self.answers: dict[int, list] = {}

    def walk(self, arrival: tuple[int, int],
             visited: tuple[tuple[int, int], ...],
             budget: int) -> tuple[str, int | None]:
        path = self.view.path(self.prefix, arrival[1])
        if not path:
            # The deflection target cannot reach the prefix at all; the
            # traffic is dropped there, which cannot form a loop.
            return SAFE, None
        on_path = set(path)

        # Revisiting any exchange presence point already on the chain means
        # the traffic comes back to an AS it already left: a loop.  The
        # point the arrival deflection itself delivered to is not a revisit.
        sites_in_order: dict[int, None] = {}
        for pos, asn in enumerate(path):
            for site_id in self.view.sites_of(asn):
                point = (site_id, asn)
                if (pos or point != arrival) and point in visited:
                    return LOOP_DETECTED, site_id
                sites_in_order[site_id] = None

        for site_id in sites_in_order:
            answer = self.answers.get(site_id)
            if answer is None:
                answer = self.view.query(self.origin_sdx, site_id, self.rule,
                                         self.prefix)
                if answer is None:
                    return QUERY_FAILED, site_id
                answer = sorted(answer, key=lambda p: p[0])
                self.answers[site_id] = answer
            for hop, owner in answer:
                point = (hop.sdx_id, hop.as_id)
                if owner is not None:
                    candidates = {owner}
                else:
                    candidates = set(self.view.members(hop.sdx_id))
                    candidates.discard(hop.as_id)
                if not candidates & on_path:
                    # No possible owner of this rule is on the walked path,
                    # so the rule cannot fire on this traffic here.
                    continue
                if point in visited:
                    return LOOP_DETECTED, hop.sdx_id
                if budget == 0:
                    return BUDGET_EXHAUSTED, None
                status, closed = self.walk(point, visited + (point,),
                                           budget - 1)
                if status != SAFE:
                    return status, closed
        return SAFE, None


def verdict_of(exploration: Exploration, rule_id: str | None = None) -> Verdict:
    status = exploration.status
    closed = exploration.closed_at if status == LOOP_DETECTED else None
    return Verdict(status, closed, rule_id)


# --------------------------------------------------------------------------
# answers and views


def table_answer(entries, rule: TernaryRule, local: bool):
    """The answer an exchange holding `entries` gives about `rule`.

    For the verifier's own table (`local`) every overlapping entry is
    reported as (next hop, owner), in entry order.  Another exchange reports
    each overlapping next hop once and never its owner.
    """
    hits = [entry for entry in entries if overlaps(rule, entry.rule)]
    if local:
        return [(entry.next_hop, entry.owner) for entry in hits]
    return [(hop, None) for hop in dict.fromkeys(e.next_hop for e in hits)]


class SiteView:
    """Routing paths and exchange membership, as every verifier knows them."""

    def __init__(self, sites: list[SdxSite],
                 ribs: dict[str, RibState]) -> None:
        self.sites = list(sites)
        self._ribs = ribs
        self._members = {s.sdx_id: s.members for s in self.sites}
        presence: dict[int, set[int]] = {}
        for site in self.sites:
            for asn in site.members:
                presence.setdefault(asn, set()).add(site.sdx_id)
        self._presence = {asn: tuple(sorted(ids))
                          for asn, ids in presence.items()}

    def path(self, prefix: str, asn: int) -> tuple[int, ...]:
        rib = self._ribs.get(prefix)
        return rib.path(asn) if rib else ()

    def sites_of(self, asn: int) -> tuple[int, ...]:
        return self._presence.get(asn, ())

    def members(self, sdx_id: int) -> frozenset[int]:
        return self._members[sdx_id]


class StaticMatchView(SiteView):
    """Exploration knowledge backed by explicit entry lists.

    Useful for replaying an install attempt against a hypothetical rule
    state without touching live nodes.
    """

    def __init__(self, sites: list[SdxSite], ribs: dict[str, RibState],
                 entries: dict[int, list[RuleEntry]]) -> None:
        super().__init__(sites, ribs)
        self._entries = entries

    def query(self, origin_sdx: int, target_sdx: int, rule: TernaryRule,
              prefix: str):
        entries = [e for e in self._entries.get(target_sdx, ())
                   if e.prefix == prefix]
        return table_answer(entries, rule, origin_sdx == target_sdx)


def sidr_baseline(view, policy: DeflectionPolicy,
                  budget: int = DEFAULT_BUDGET) -> Verdict:
    """Match-agnostic verdict over the same exploration, `view` and budget.

    The SIDR-style baseline shares per-prefix forwarding actions but
    nothing about the traffic they apply to, so it walks a rule that
    matches all traffic: every entry for the prefix overlaps it.
    """
    wildcard = TernaryRule.wildcard(policy.rule.width)
    return verdict_of(explore_deflection(
        view, replace(policy, rule=wildcard), budget))


# --------------------------------------------------------------------------
# event log


@dataclass(frozen=True)
class LogEvent:
    time: int
    sdx: int
    kind: str
    detail: dict

    def line(self) -> str:
        inner = " ".join(f"{k}={self.detail[k]}" for k in sorted(self.detail))
        return f"{self.time} sdx={self.sdx} {self.kind} {inner}"


# --------------------------------------------------------------------------
# registry


@dataclass
class RegistryEntry:
    """A rule as its home exchange tracks it, active or not."""

    rule_id: str
    entry: RuleEntry
    policy: DeflectionPolicy
    budget: int
    active: bool = False
    queried: frozenset[int] = frozenset()
    subscribers: set[int] = field(default_factory=set)
    # each remote exchange's last answer over smpc, with its table tag
    answers: dict[int, QueryResult] = field(default_factory=dict)


class _RecordView:
    """The plane as one record's walk sees it: remote queries go through
    the record's cached answers."""

    def __init__(self, plane: "ControlPlane", record: RegistryEntry) -> None:
        self.path, self.sites_of = plane.path, plane.sites_of
        self.members = plane.members
        self._plane, self._answers = plane, record.answers

    def query(self, origin_sdx: int, target_sdx: int, rule: TernaryRule,
              prefix: str):
        return self._plane.query(origin_sdx, target_sdx, rule, prefix,
                                 answers=self._answers)


# --------------------------------------------------------------------------
# nodes and plane


class SdxNode:
    """One exchange's verifier: registry, match service, subscriptions."""

    def __init__(self, site: SdxSite, plane: "ControlPlane",
                 endpoint_seed: int) -> None:
        self.sdx_id = site.sdx_id
        self.plane = plane
        self.service = SdxMatchService(site.sdx_id)
        self.endpoint = LoopbackEndpoint(self.service, seed=endpoint_seed)
        self.registry: dict[str, RegistryEntry] = {}
        self._rule_ids = (f"r{site.sdx_id}-{n}" for n in itertools.count(1))

    # -- bookkeeping

    def log(self, kind: str, detail: dict) -> None:
        self.plane.record(self.sdx_id, kind, detail)

    # -- verification

    def handle_install(self, policy: DeflectionPolicy, budget: int) -> Verdict:
        """Verify a policy that :meth:`ControlPlane.install` has validated."""
        if policy.sdx_id != self.sdx_id:
            raise ValueError("policy belongs to another exchange")
        if budget < 0:
            raise ValueError("budget must be non-negative")
        rule_id = next(self._rule_ids)
        self.log("install_request",
                 {"rule_id": rule_id, "owner": policy.owner,
                  "prefix": policy.prefix, "budget": budget})
        record = self.registry[rule_id] = RegistryEntry(
            rule_id, rule_entry(policy), policy, budget)
        verdict = self._settle(record)
        self.log("verdict",
                 {"rule_id": rule_id, "decision": verdict.decision,
                  "reason": verdict.reason})
        return verdict

    def _settle(self, record: RegistryEntry) -> Verdict:
        """Walk a registered rule; activate it if it passes and retire an
        active one that fails."""
        exploration = explore_deflection(_RecordView(self.plane, record),
                                         record.policy, record.budget)
        record.queried = exploration.queried - {self.sdx_id}
        verdict = verdict_of(exploration, rule_id=record.rule_id)
        if verdict.accepted and not record.active:
            self._activate(record)
        elif not verdict.accepted and record.active:
            self._retire(record, "deactivate", {"reason": verdict.reason})
        return verdict

    def _activate(self, record: RegistryEntry) -> None:
        self.service.register(record.entry)
        record.active = True
        self.log("activate", {"rule_id": record.rule_id})
        for sdx_id in sorted(record.queried):
            self.plane.nodes[sdx_id].receive_subscribe(
                record.entry.prefix, self.sdx_id)

    def _retire(self, record: RegistryEntry, kind: str, detail: dict) -> None:
        """Take a rule out of the table if it is active, log `kind`, and
        notify the exchanges subscribed to it."""
        if record.active:
            self.service.deregister(record.entry)
            record.active = False
        self.log(kind, {"rule_id": record.rule_id,
                        "owner": record.entry.owner, **detail})
        targets = sorted(record.subscribers)
        record.subscribers.clear()
        for sdx_id in targets:
            self.log("notify", {"to": sdx_id, "prefix": record.entry.prefix})
            self.plane.nodes[sdx_id].receive_notify(record.entry.prefix,
                                                    self.sdx_id)

    def _rewalk(self, prefix: str, cause: str, needs) -> list[Verdict]:
        """Settle again, in rule-id order, each registered rule of `prefix`
        that `needs(record)` when its turn comes: an earlier re-walk may
        have changed it."""
        verdicts: list[Verdict] = []
        for rule_id in sorted(self.registry):
            record = self.registry[rule_id]
            if record.entry.prefix == prefix and needs(record):
                self.log("reverify", {"rule_id": rule_id, "cause": cause})
                verdicts.append(self._settle(record))
        return verdicts

    # -- inter-exchange messages

    def receive_subscribe(self, prefix: str, subscriber: int) -> None:
        self.log("subscribe", {"prefix": prefix, "from": subscriber})
        for record in self.registry.values():
            if record.active and record.entry.prefix == prefix:
                record.subscribers.add(subscriber)

    def receive_notify(self, prefix: str, from_sdx: int) -> None:
        """Re-walk the active rules that consulted the notifying exchange."""
        self._rewalk(prefix, "notify",
                     lambda r: r.active and from_sdx in r.queried)

    # -- lifecycle

    def handle_remove(self, owner: int, rule_id: str) -> bool:
        record = self.registry[rule_id]
        if record.entry.owner != owner:
            log.warning("removal of rule %s by AS %d refused: owner "
                        "mismatch, the rule belongs to AS %d", rule_id,
                        owner, record.entry.owner)
            self.log("remove_refused", {"rule_id": rule_id, "owner": owner,
                                        "rule_owner": record.entry.owner})
            return False
        del self.registry[rule_id]
        self._retire(record, "remove", {})
        return True

    def reverify_for_update(self, prefix: str, old_rib: RibState | None
                            ) -> list[Verdict]:
        """Re-walk the rules whose deflection target's path moved."""
        def moved(record: RegistryEntry) -> bool:
            target = record.policy.deflect_to
            return ((old_rib.path(target) if old_rib else ())
                    != self.plane.path(prefix, target))
        return self._rewalk(prefix, "bgp_update", moved)


class ControlPlane(SiteView):
    """Deterministic single-process simulation of the verifier network.

    With `transport="direct"` every query is answered in plaintext; with
    `"smpc"` a query to another exchange runs a two-party session over
    `backend`.  Either way the holder logs only what the session shows it.
    The plane reads routes from `ribs` alone; `graph` is accepted and not
    kept.
    """

    def __init__(self, graph, sites: list[SdxSite],
                 ribs: dict[str, RibState], *, transport: str = "direct",
                 backend: str = "gmw", seed: int = 0) -> None:
        if transport not in ("direct", "smpc"):
            raise ValueError(f"unknown transport {transport!r}")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        super().__init__(sites, dict(ribs))
        self.transport = transport
        self.backend = backend
        self.events: list[LogEvent] = []
        self._lock = threading.Lock()
        self.nodes: dict[int, SdxNode] = {}
        for index, site in enumerate(sorted(self.sites,
                                            key=lambda s: s.sdx_id)):
            self.nodes[site.sdx_id] = SdxNode(
                site, self, endpoint_seed=seed * 7919 + index)

    # -- exploration view

    def rib(self, prefix: str) -> RibState | None:
        return self._ribs.get(prefix)

    def validate(self, policy: DeflectionPolicy) -> None:
        """Raise PolicyError unless the policy is well formed here: a known
        exchange and prefix, and members and routes as it needs them."""
        rib = self.rib(policy.prefix)
        if rib is None:
            raise PolicyError(f"no routing state for prefix {policy.prefix!r}")
        validate_policy(policy, self.sites, rib)

    def query(self, origin_sdx: int, target_sdx: int, rule: TernaryRule,
              prefix: str, *, answers: dict[int, QueryResult] | None = None):
        """The target's answer about `rule`, or None if its session aborted.

        `answers`, a registry record's cache, holds the target's last
        answer to that record over smpc; a session whose table tag still
        matches it reuses it, and a full one replaces it.
        """
        self.nodes[origin_sdx].log(
            "query_sent", {"target": target_sdx, "prefix": prefix})
        node = self.nodes[target_sdx]
        entries = node.service.entries_for(prefix)
        local = origin_sdx == target_sdx
        if self.transport == "smpc" and not local:
            try:
                result = node.endpoint.query(
                    rule, prefix, backend=self.backend,
                    cached=(answers or {}).get(target_sdx, NO_ANSWER))
            except QueryAborted:
                return None
            if answers is not None:
                answers[target_sdx] = result
            answer = [(hop, None) for hop in result.hops]
        else:
            answer = table_answer(entries, rule, local)
        node.log("query_served",
                 {"prefix": prefix, "k": len(entries), "from": origin_sdx})
        return answer

    # -- event log

    def record(self, sdx_id: int, kind: str, detail: dict) -> None:
        with self._lock:
            self.events.append(LogEvent(len(self.events), sdx_id, kind,
                                        dict(detail)))

    def events_at(self, sdx_id: int) -> list[LogEvent]:
        return [e for e in self.events if e.sdx == sdx_id]

    # -- member-facing operations

    def install(self, policy: DeflectionPolicy,
                budget: int = DEFAULT_BUDGET) -> Verdict:
        self.validate(policy)  # before looking up the policy's exchange
        return self.nodes[policy.sdx_id].handle_install(policy, budget)

    def remove(self, owner: int, rule_id: str) -> bool:
        for node in self.nodes.values():
            if rule_id in node.registry:
                return node.handle_remove(owner, rule_id)
        log.warning("removal of unknown rule %s by AS %d", rule_id, owner)
        self.record(0, "remove_unknown", {"rule_id": rule_id, "owner": owner})
        return False

    def bgp_update(self, prefix: str, rib: RibState) -> list[Verdict]:
        old = self._ribs.get(prefix)
        self._ribs[prefix] = rib
        self.record(0, "bgp_update", {"prefix": prefix})
        verdicts: list[Verdict] = []
        for sdx_id in sorted(self.nodes):
            verdicts.extend(
                self.nodes[sdx_id].reverify_for_update(prefix, old))
        return verdicts

    # -- state inspection

    def active_policies(self, prefix: str | None = None
                        ) -> list[DeflectionPolicy]:
        return [r.policy for sdx_id in sorted(self.nodes)
                for r in self.nodes[sdx_id].registry.values()
                if r.active and (prefix is None or r.entry.prefix == prefix)]

