"""Policy registry, spec parsing and per-policy RNG seed derivation.

A policy is addressed by a *spec string*::

    uusee
    locality:mix=0.8
    hamiltonian:k=3
    random-regular:d=4

``name`` keys the registry; ``key=val`` pairs become constructor
keyword arguments (ints stay ints, everything else parses as float).
:func:`canonical_spec` renders the parsed form back with sorted keys so
equal configurations hash to equal checkpoint config tokens regardless
of how the user ordered the parameters.
"""

from __future__ import annotations

import hashlib

from repro.overlay.base import PartnerPolicy, PolicyError, canonical_spec

_REGISTRY: dict[str, type[PartnerPolicy]] = {}


def register(cls: type[PartnerPolicy]) -> type[PartnerPolicy]:
    """Class decorator: add a policy to the registry under ``cls.name``."""
    if not cls.name:
        raise PolicyError(f"{cls.__qualname__} has no name")
    if cls.name in _REGISTRY:
        raise PolicyError(f"duplicate policy name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def available_policies() -> list[str]:
    """Registered policy names, sorted."""
    return sorted(_REGISTRY)


def _parse_value(text: str) -> float:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError as exc:
        raise PolicyError(f"policy parameter value {text!r} is not a number") from exc


def parse_policy_spec(spec: str) -> tuple[str, dict[str, float]]:
    """Split ``name[:key=val,...]`` into a name and a parameter dict."""
    name, _, rest = spec.strip().partition(":")
    name = name.strip()
    if not name:
        raise PolicyError(f"empty policy name in spec {spec!r}")
    params: dict[str, float] = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise PolicyError(
                    f"malformed policy parameter {item!r} in spec {spec!r} "
                    "(expected key=value)"
                )
            params[key] = _parse_value(value.strip())
    return name, params


def derive_policy_seed(seed: int, name: str) -> int:
    """A policy's own RNG seed, derived from the campaign seed by hash.

    Deriving (instead of drawing from the master seed chain) means a
    policy stream can be added without shifting the ``seed_for()`` order
    that every existing named stream depends on — the same idiom as
    ``repro.fleet.plan.shard_seed``.
    """
    digest = hashlib.sha256(f"repro.overlay:{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def build_policy(spec: str, *, seed: int = 0) -> PartnerPolicy:
    """Instantiate the policy a spec string names.

    ``seed`` is the campaign seed; policies that own an RNG derive their
    stream from it via :func:`derive_policy_seed`.
    """
    name, params = parse_policy_spec(spec)
    cls = _REGISTRY.get(name)
    if cls is None:
        known = ", ".join(available_policies())
        raise PolicyError(f"unknown partner policy {name!r} (available: {known})")
    try:
        return cls(seed=seed, **params)
    except TypeError as exc:
        raise PolicyError(f"bad parameters for policy {name!r}: {exc}") from exc
