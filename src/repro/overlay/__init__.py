"""Pluggable partner-selection policies — the overlay lab (DESIGN.md Sec. 11).

Magellan's headline findings are properties of UUSee's *particular*
partner-selection protocol.  This package turns that protocol into one
implementation of a :class:`~repro.overlay.base.PartnerPolicy`
interface and ships alternatives from the related literature behind a
registry, so the identical simulator, trace pipeline and metric suite
measure every overlay:

- ``uusee`` — measured-quality greedy selection (the paper's protocol),
  extracted draw-identically from the exchange engine;
- ``random`` / ``tree`` — the pre-existing ablations;
- ``locality`` — tunable locality/random mix over ISP distance
  (Clegg et al., arxiv 1303.6807), ``mix`` in [0, 1];
- ``hamiltonian`` — k random Hamiltonian cycles per channel, maintained
  under churn (Kim & Srikant, arxiv 1207.3110);
- ``random-regular`` — d-regular random digraph with rewiring;
- ``strandcast`` — single-chain baseline (one strand per channel).

Select a policy with a spec string (``run --policy locality:mix=0.8``);
``repro compare-overlays`` runs the full Magellan metric suite across
policies.
"""

from repro.overlay.base import (
    EngineLike,
    LinkLike,
    PartnerPolicy,
    PeerLike,
    PolicyError,
    canonical_spec,
)
from repro.overlay.registry import (
    available_policies,
    build_policy,
    derive_policy_seed,
    parse_policy_spec,
    register,
)

# Importing the implementation modules populates the registry.
from repro.overlay.legacy import RandomPolicy, TreePolicy, UUSeePolicy
from repro.overlay.locality import LocalityPolicy
from repro.overlay.hamiltonian import HamiltonianPolicy
from repro.overlay.regular import RandomRegularPolicy
from repro.overlay.strandcast import StrandCastPolicy

__all__ = [
    "EngineLike",
    "LinkLike",
    "PartnerPolicy",
    "PeerLike",
    "PolicyError",
    "available_policies",
    "build_policy",
    "canonical_spec",
    "derive_policy_seed",
    "parse_policy_spec",
    "register",
    "UUSeePolicy",
    "RandomPolicy",
    "TreePolicy",
    "LocalityPolicy",
    "HamiltonianPolicy",
    "RandomRegularPolicy",
    "StrandCastPolicy",
]
