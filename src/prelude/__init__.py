"""Privacy-preserving detection of SDN-induced forwarding loops across exchange points.

Layering, bottom up:

- ``rules``: ternary match rules over the fixed 104-bit header layout.
- ``circuits``: the rule comparator, the one circuit, as a template
  defined by its rule width.
- ``smpc``: two-party evaluation of that template (GMW and garbled circuits)
  over a framed message channel with a trusted setup dealer.
- ``distinct_match``: the query primitive one exchange point runs against
  another's rule table without either side revealing rule bits.
- ``bgpsim``: AS-level topology, policy-compliant route computation, deflection
  policies, and an exact forwarding-loop oracle used as ground truth.
- ``control``: the per-exchange-point verifier that accepts or rejects rule
  installations, plus a match-agnostic baseline detector.
- ``harness``: seeded experiments (effectiveness, path lengths, protocol
  microbenchmarks) behind the ``prelude`` command line tool.
"""

from prelude.bgpsim import (
    DeflectionPolicy,
    SdxSite,
    compute_routes,
    forwarding_oracle,
    generate_topology,
    two_exchange_fixture,
)
from prelude.control import ControlPlane, Verdict, sidr_baseline
from prelude.distinct_match import (
    LoopbackEndpoint,
    NextHopId,
    QueryResult,
    RuleEntry,
    SdxMatchService,
)
from prelude.harness import ExperimentConfig, load_config
from prelude.rules import (
    FlowSpec,
    Packet,
    RULE_WIDTH,
    TernaryRule,
    decode,
    distinct,
    encode,
    encode_packet,
    format_rule,
    matches,
    overlaps,
    parse_rule,
)

__all__ = [
    "ControlPlane",
    "DeflectionPolicy",
    "ExperimentConfig",
    "FlowSpec",
    "LoopbackEndpoint",
    "NextHopId",
    "Packet",
    "QueryResult",
    "RULE_WIDTH",
    "RuleEntry",
    "SdxMatchService",
    "SdxSite",
    "TernaryRule",
    "Verdict",
    "compute_routes",
    "decode",
    "distinct",
    "encode",
    "encode_packet",
    "format_rule",
    "forwarding_oracle",
    "generate_topology",
    "load_config",
    "matches",
    "overlaps",
    "parse_rule",
    "sidr_baseline",
    "two_exchange_fixture",
]

__version__ = "0.1.0"
