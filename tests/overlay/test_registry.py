"""Registry, spec parsing and policy construction contracts."""

import pytest

from repro.core.experiments import normalize_policy
from repro.overlay import (
    PartnerPolicy,
    PolicyError,
    available_policies,
    build_policy,
    canonical_spec,
    derive_policy_seed,
    parse_policy_spec,
    register,
)
from repro.simulator.protocol import SelectionPolicy


class TestParseSpec:
    def test_bare_name(self):
        assert parse_policy_spec("uusee") == ("uusee", {})

    def test_params(self):
        name, params = parse_policy_spec("locality:mix=0.8")
        assert name == "locality"
        assert params == {"mix": 0.8}

    def test_int_params_stay_int(self):
        _, params = parse_policy_spec("hamiltonian:k=3")
        assert params == {"k": 3}
        assert isinstance(params["k"], int)

    def test_multiple_params(self):
        _, params = parse_policy_spec("x:b=2,a=1.5")
        assert params == {"b": 2, "a": 1.5}

    @pytest.mark.parametrize("bad", ["", ":", "x:mix", "x:mix=", "x:=1", "x:mix=abc"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(PolicyError):
            parse_policy_spec(bad)

    def test_canonical_spec_sorts_params(self):
        assert canonical_spec("x", {"b": 2, "a": 1.5}) == "x:a=1.5,b=2"
        assert canonical_spec("x", {}) == "x"

    @pytest.mark.parametrize(
        "spec",
        [
            "uusee",
            "random",
            "tree",
            "locality:mix=0.75",
            "hamiltonian:k=2",
            "random-regular:d=4",
            "strandcast",
        ],
    )
    def test_policy_spec_is_the_canonical_spec(self, spec):
        # The overlay matrix of CI; health.json's policy.spec is spec().
        canonical = canonical_spec(*parse_policy_spec(spec))
        assert build_policy(spec).spec() == canonical == spec


class TestRegistry:
    def test_all_policies_registered(self):
        assert available_policies() == [
            "hamiltonian",
            "locality",
            "random",
            "random-regular",
            "strandcast",
            "tree",
            "uusee",
        ]

    def test_unknown_name_rejected(self):
        with pytest.raises(PolicyError, match="unknown"):
            build_policy("definitely-not-a-policy")

    def test_unknown_param_rejected(self):
        with pytest.raises(PolicyError):
            build_policy("uusee:foo=1")

    @pytest.mark.parametrize(
        "bad",
        [
            "locality:mix=2",
            "locality:mix=-0.1",
            "hamiltonian:k=0",
            "hamiltonian:k=1.5",
            "random-regular:d=0",
            "random-regular:d=2.5",
        ],
    )
    def test_bad_param_values_rejected(self, bad):
        with pytest.raises(PolicyError):
            build_policy(bad)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):

            @register
            class Duplicate(PartnerPolicy):
                name = "uusee"

    def test_nameless_registration_rejected(self):
        with pytest.raises(ValueError):

            @register
            class Nameless(PartnerPolicy):
                pass

    def test_spec_roundtrip(self):
        policy = build_policy("locality:mix=0.8")
        assert policy.spec() == "locality:mix=0.8"
        assert build_policy(policy.spec()).params == policy.params

    def test_default_params_in_spec(self):
        assert build_policy("hamiltonian").spec() == "hamiltonian:k=2"
        assert build_policy("random-regular").spec() == "random-regular:d=4"
        assert build_policy("uusee").spec() == "uusee"
        assert build_policy("strandcast").spec() == "strandcast"


class TestDerivedSeeds:
    def test_deterministic(self):
        assert derive_policy_seed(7, "locality") == derive_policy_seed(7, "locality")

    def test_distinct_across_names_and_seeds(self):
        seeds = {
            derive_policy_seed(s, n)
            for s in (0, 1, 2)
            for n in ("locality", "hamiltonian", "random-regular")
        }
        assert len(seeds) == 9


class TestNormalizePolicy:
    def test_enum_passthrough(self):
        assert normalize_policy(SelectionPolicy.TREE) == (SelectionPolicy.TREE, "")

    @pytest.mark.parametrize("name", ["uusee", "random", "tree"])
    def test_legacy_bare_names_stay_legacy(self, name):
        # The enum keeps driving config_token-compatible campaigns.
        assert normalize_policy(name) == (SelectionPolicy(name), "")

    def test_overlay_specs_ride_the_overlay_field(self):
        assert normalize_policy("locality:mix=0.8") == (
            SelectionPolicy.UUSEE,
            "locality:mix=0.8",
        )
        assert normalize_policy("strandcast") == (SelectionPolicy.UUSEE, "strandcast")

    def test_canonicalizes_param_order(self):
        _, overlay = normalize_policy("locality:mix=0.5")
        assert overlay == canonical_spec("locality", {"mix": 0.5})

    def test_unknown_and_invalid_rejected(self):
        with pytest.raises(PolicyError):
            normalize_policy("nope")
        with pytest.raises(PolicyError):
            normalize_policy("locality:mix=9")
