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

from importlib import import_module

# Where each name ``from prelude import ...`` offers lives.  The package
# imports none of these modules itself: a name's module is imported when
# the name is first read (PEP 562), so importing one module, such as
# ``prelude.distinct_match``, leaves the rest unimported.
_EXPORTS = {
    "prelude.bgpsim": (
        "DeflectionPolicy",
        "SdxSite",
        "compute_routes",
        "forwarding_oracle",
        "generate_topology",
        "two_exchange_fixture",
    ),
    "prelude.control": ("ControlPlane", "Verdict", "sidr_baseline"),
    "prelude.distinct_match": (
        "LoopbackEndpoint",
        "NextHopId",
        "QueryResult",
        "RuleEntry",
        "SdxMatchService",
    ),
    "prelude.harness": ("ExperimentConfig", "load_config"),
    "prelude.rules": (
        "FlowSpec",
        "Packet",
        "RULE_WIDTH",
        "TernaryRule",
        "decode",
        "distinct",
        "encode",
        "encode_packet",
        "format_rule",
        "matches",
        "overlaps",
        "parse_rule",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # not a re-export: ``from prelude import control`` goes on to
        # import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value


__version__ = "0.1.0"
