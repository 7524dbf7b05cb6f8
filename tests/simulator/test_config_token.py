"""Pinned checkpoint config tokens.

A checkpoint resumes only under a config whose :func:`config_token`
equals the one it was written with, so a config-field edit that moves a
token makes every existing campaign refuse ``--resume``.  These digests
were captured before ``SystemConfig`` dropped its unused fields
(``weekend_boost``, ``sessions``, ``num_trackers``, ``outages``,
``servers_per_channel``, ``server_upload_kbps``); they must not move.
"""

from repro.core.experiments import normalize_policy
from repro.fleet.plan import build_plan
from repro.simulator.channel import default_catalogue
from repro.simulator.checkpoint import config_token
from repro.simulator.failures import FaultPlan, Outage, OutageSchedule
from repro.simulator.system import SystemConfig
from repro.workloads.flashcrowd import FlashCrowdEvent


def test_default_config():
    assert config_token(SystemConfig()) == (
        "cd7725a5d88a9e6be16cee0a677b76f6cd76917dfa2abf3ac9f23056d779f631"
    )


def test_steady_5k_config():
    config = SystemConfig(seed=1, base_concurrency=5000.0, flash_crowd=None)
    assert config_token(config) == (
        "f3a97435f8ad56cd6eda10d8033a118c12a962d19a9c82c0371e7adb1daf56c8"
    )


def test_fleet_shard_scope():
    plan = build_plan(
        "campaign",
        num_shards=2,
        days=1.0,
        base_concurrency=300.0,
        seed=2006,
        catalogue=default_catalogue(),
    )
    spec = plan.specs[1]
    scope = spec.scope_token()
    assert scope == "fleet-shard:1/2:channels:2,3,5,6"
    config = SystemConfig(
        seed=spec.derived_seed(),
        base_concurrency=spec.base_concurrency,
        flash_crowd=FlashCrowdEvent(),
    )
    assert config_token(config, scope) == (
        "8133b81cde9b1e90157e8ce9c4c48d0f0ad13b165b6d688bcd721306e55b5b09"
    )


def test_tracker_outage_plan():
    faults = FaultPlan(
        outages=OutageSchedule(tracker_outages=[Outage(3600.0, 7200.0)])
    )
    config = SystemConfig(
        seed=3, base_concurrency=200.0, flash_crowd=None, faults=faults
    )
    assert config_token(config) == (
        "0ed00a53fbe8d6b8e59fac7fb7903d10395fec7b27528bf89fa3d82bc5b9ccba"
    )


def test_locality_overlay():
    policy, overlay = normalize_policy("locality:mix=0.75")
    config = SystemConfig(
        seed=4,
        base_concurrency=150.0,
        flash_crowd=None,
        policy=policy,
        overlay=overlay,
    )
    assert config_token(config) == (
        "6f89e664015c779c110e4a3a484bb13da4de5f3c88718a2866ede3c704eb4c53"
    )
