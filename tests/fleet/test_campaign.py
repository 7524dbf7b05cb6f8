"""Fleet campaign acceptance: multi-fault equivalence, goldens, health."""

from __future__ import annotations

from repro.core.experiments import load_campaign_health
from repro.fleet import FleetCampaignConfig, run_fleet_campaign
from repro.fleet.plan import ChaosSpec

from .helpers import FAST_POLICY, fingerprints, fleet_config, run_reference


def test_four_shards_two_sigkills_one_hang_matches_reference(tmp_path):
    """The ISSUE acceptance scenario, as a test.

    A 4-shard campaign absorbing two SIGKILLs (different shards,
    different rounds) and one hung worker completes with the same
    merged content hash and the same per-shard RNG fingerprints as an
    uninterrupted 4-shard campaign.
    """
    reference = run_reference(tmp_path / "reference", num_shards=4)
    assert reference.completed

    chaotic = run_fleet_campaign(
        fleet_config(
            tmp_path / "chaotic",
            num_shards=4,
            chaos={
                1: ChaosSpec(mode="crash", at_round=3),
                2: ChaosSpec(mode="hang", at_round=4),
                3: ChaosSpec(mode="crash", at_round=5),
            },
        )
    )
    assert chaotic.completed
    assert not chaotic.quarantined
    restarts = {sid: o.restarts for sid, o in chaotic.outcomes.items()}
    assert restarts == {0: 0, 1: 1, 2: 1, 3: 1}
    assert chaotic.merge.content_sha256 == reference.merge.content_sha256
    assert fingerprints(chaotic) == fingerprints(reference)


def test_fleet_health_payload_covers_every_shard(tmp_path):
    campaign_dir = tmp_path / "campaign"
    result = run_fleet_campaign(
        fleet_config(
            campaign_dir,
            chaos={1: ChaosSpec(mode="crash", at_round=3)},
        )
    )
    assert result.completed
    health = load_campaign_health(campaign_dir)
    fleet = health["fleet"]
    assert fleet["num_shards"] == 2
    assert set(fleet["shards"]) == {"0", "1"}
    for shard in fleet["shards"].values():
        assert shard["status"] == "done"
        assert shard["rounds_completed"] > 0
        assert shard["channels"]
        assert shard["rng_fingerprint"]
    assert fleet["shards"]["1"]["restarts"] == 1
    assert fleet["quarantined"] == []
    assert fleet["merged_sha256"] == result.merge.content_sha256
    assert [i["kind"] for i in fleet["incidents"]] == ["crash"]
    # The merged campaign-level health survives alongside fleet detail.
    assert health["interrupted"] is False
    assert health["trace_records"] == result.merge.records


def test_golden_per_shard_fingerprints_are_pinned(tmp_path):
    """Draw-for-draw determinism across releases.

    These constants pin the exact per-shard RNG evolution and the
    merged trace bytes for a tiny fixed fleet.  If this test breaks,
    shard seeding, the RNG discipline, or the trace encoding changed
    in a way that silently invalidates every crash-equals-clean
    guarantee — bump deliberately, never casually.  (Bumped once when
    the tracker and arrival streams joined the fingerprint: the draws,
    and so the merged trace bytes below, did not change.)
    """
    result = run_fleet_campaign(
        FleetCampaignConfig(
            campaign_dir=tmp_path / "campaign",
            num_shards=2,
            days=0.02,
            base_concurrency=50.0,
            seed=2006,
            checkpoint_every_rounds=4,
            supervisor=FAST_POLICY,
        )
    )
    assert result.completed
    assert fingerprints(result) == {
        0: "04b229dc5e26023dfb2238dc1c64f3de8b4366232b35cd0ff276c621389ee561",
        1: "23cc9dc775d0fe2e2c43b5299a9b2ae1cdab3df645ff1a1a58fab87c22b96bec",
    }
    assert result.merge.content_sha256 == (
        "bd221a2b9a799e3d1d1dbf2fcf9b2094d2423e65bc7144dc5e1a12aafba011f4"
    )
    rounds = {sid: o.rounds_completed for sid, o in result.outcomes.items()}
    assert rounds == {0: 3, 1: 3}
