"""System-level overlay contracts: fingerprints, checkpoints, the study."""

import copy

import pytest

from repro.core.experiments import (
    DEFAULT_OVERLAY_SPECS,
    compare_overlays,
    run_campaign,
)
from repro.simulator.checkpoint import (
    CheckpointError,
    draw_fingerprint,
    restore_into,
    snapshot_system,
)
from repro.simulator.protocol import SelectionPolicy
from repro.simulator.system import SystemConfig, UUSeeSystem
from repro.traces.store import InMemoryTraceStore


def _config(overlay: str = "", **kwargs) -> SystemConfig:
    defaults = dict(seed=13, base_concurrency=60.0, flash_crowd=None)
    defaults.update(kwargs)
    return SystemConfig(overlay=overlay, **defaults)


class TestUUSeeEquivalence:
    def test_overlay_uusee_is_draw_identical_to_enum(self):
        """overlay='uusee' must not change a single draw or report."""
        runs = []
        for overlay in ("", "uusee"):
            store = InMemoryTraceStore()
            system = UUSeeSystem(_config(overlay), store)
            system.run(seconds=2 * 3_600.0)
            runs.append((draw_fingerprint(system), list(store)))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]


class TestPolicyCheckpointResume:
    @pytest.mark.parametrize(
        "overlay",
        ["locality:mix=0.6", "hamiltonian:k=2", "random-regular:d=3", "strandcast"],
    )
    def test_resume_is_draw_identical(self, overlay):
        """Snapshot mid-run, restore into a fresh system, continue: the
        finished state must match an uninterrupted run draw for draw."""
        config = _config(overlay)

        reference = UUSeeSystem(config, InMemoryTraceStore())
        reference.run(seconds=4 * 3_600.0)

        first = UUSeeSystem(config, InMemoryTraceStore())
        first.run(seconds=2 * 3_600.0)
        state = copy.deepcopy(snapshot_system(first))

        resumed = UUSeeSystem(config, InMemoryTraceStore())
        restore_into(resumed, state)
        resumed.run(seconds=4 * 3_600.0 - resumed.now)

        assert draw_fingerprint(resumed) == draw_fingerprint(reference)
        ref_state = snapshot_system(reference)
        res_state = snapshot_system(resumed)
        assert res_state["overlay"] == ref_state["overlay"]

    def test_mismatched_policy_refused(self):
        """The overlay spec feeds the config token: a checkpoint taken
        under one policy must not restore into another."""
        first = UUSeeSystem(_config("hamiltonian:k=2"), InMemoryTraceStore())
        first.run(seconds=3_600.0)
        state = snapshot_system(first)
        other = UUSeeSystem(_config("locality:mix=0.6"), InMemoryTraceStore())
        with pytest.raises(CheckpointError, match="different configuration"):
            restore_into(other, state)

    def test_mismatched_params_refused(self):
        first = UUSeeSystem(_config("hamiltonian:k=2"), InMemoryTraceStore())
        first.run(seconds=3_600.0)
        state = snapshot_system(first)
        other = UUSeeSystem(_config("hamiltonian:k=3"), InMemoryTraceStore())
        with pytest.raises(CheckpointError, match="different configuration"):
            restore_into(other, state)

    def test_legacy_policies_checkpoint_without_overlay_state(self):
        system = UUSeeSystem(_config(), InMemoryTraceStore())
        system.run(seconds=3_600.0)
        assert snapshot_system(system)["overlay"] is None


class TestCampaignPolicyInfo:
    def test_health_json_carries_policy(self, tmp_path):
        result = run_campaign(
            tmp_path / "camp",
            days=0.05,
            base_concurrency=50.0,
            seed=3,
            with_flash_crowd=False,
            policy="locality:mix=0.8",
        )
        assert result.policy_name == "locality"
        assert result.policy_params == {"mix": 0.8}
        assert result.policy_spec == "locality:mix=0.8"
        import json

        payload = json.loads((tmp_path / "camp" / "health.json").read_text())
        assert payload["policy"] == {
            "name": "locality",
            "params": {"mix": 0.8},
            "spec": "locality:mix=0.8",
        }

    def test_default_campaign_reports_uusee(self, tmp_path):
        result = run_campaign(
            tmp_path / "camp",
            days=0.05,
            base_concurrency=50.0,
            seed=3,
            with_flash_crowd=False,
        )
        assert result.policy_spec == "uusee"
        assert result.policy_params == {}


class TestCompareOverlays:
    def test_runs_all_default_policies(self):
        study = compare_overlays(hours=2.0, base_concurrency=60.0, seed=5)
        assert [row.spec for row in study.rows] == list(DEFAULT_OVERLAY_SPECS)
        for row in study.rows:
            assert row.num_peers > 0
        by_spec = {row.spec: row for row in study.rows}
        # The structural overlays carry their degree caps into the
        # measured topology: chain indegree 1, cycles <= k, regular <= d.
        assert by_spec["strandcast"].max_indegree == 1
        assert by_spec["hamiltonian:k=2"].max_indegree <= 2
        assert by_spec["random-regular:d=4"].max_indegree <= 4
        assert 0.0 < study.random_intra_baseline < 1.0

    def test_markdown_table_shape(self):
        study = compare_overlays(["uusee", "strandcast"], hours=1.0,
                                 base_concurrency=60.0, seed=5)
        lines = study.markdown().splitlines()
        assert len(lines) == 4  # header + separator + two policy rows
        assert lines[0].startswith("| policy |")
        assert "strandcast" in lines[3]

    def test_unknown_policy_rejected(self):
        from repro.overlay import PolicyError

        with pytest.raises(PolicyError):
            compare_overlays(["nope"], hours=0.5, base_concurrency=40.0)
