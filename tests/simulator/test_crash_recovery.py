"""Kill/recover harness: checkpointed campaigns survive crashes.

Each scenario interrupts a seeded run at an adversarial instant —
between checkpoints, mid-checkpoint (torn newest file), mid-segment
rotation (stale manifest), mid-line (torn trace tail) — resumes it, and
asserts the result is indistinguishable from an uninterrupted twin:
identical trace content (sha256) and, where the harness audits RNGs,
identical draw sequences.

Kills are simulated deterministically in-process: the run is abandoned
without ``close()`` (so nothing is sealed or finalized) and the chosen
crash damage is inflicted on the files directly.  A flush boundary is
the kill point — what a real SIGKILL leaves when it lands between
flushes; torn-write scenarios add the partial bytes explicitly.
"""

import hashlib
import io
import pickle
import tracemalloc

import pytest

from repro.core.experiments import run_campaign
from repro.qa import DrawAudit, assert_identical_draws
from repro.simulator import (
    CheckpointError,
    CheckpointManager,
    SystemConfig,
    UUSeeSystem,
    draw_fingerprint,
    load_checkpoint,
    restore_into,
    snapshot_system,
)
from repro.simulator.checkpoint import (
    MAGIC,
    PEER_BATCH,
    VERSION,
    CheckpointCorruptError,
    save_checkpoint,
)
from repro.traces import (
    ChannelCounters,
    ChannelFaults,
    FaultyChannel,
    SegmentedTraceReader,
    SegmentedTraceStore,
)
from tests.ingest.helpers import report_at
from tests.simulator.test_peer import (
    legacy_peer_pickle,
    make_link,
    make_peer,
    peer_values,
)

SEED = 2006
BASE = 60.0
ROUND = 600.0  # ProtocolConfig default round_seconds
TOTAL_ROUNDS = 18
SEGMENT_RECORDS = 40


def make_config() -> SystemConfig:
    return SystemConfig(seed=SEED, base_concurrency=BASE, flash_crowd=None)


def fresh_system(trace_dir):
    store = SegmentedTraceStore(trace_dir, records_per_segment=SEGMENT_RECORDS)
    return UUSeeSystem(make_config(), store), store


def run_uninterrupted(trace_dir, *, rounds=TOTAL_ROUNDS):
    system, store = fresh_system(trace_dir)
    system.run(seconds=rounds * ROUND)
    store.close()
    return system, store


def run_until_killed(trace_dir, ckpt_dir, *, kill_after, every=3):
    """Run with checkpoints, then 'die': flush and abandon, no close."""
    system, store = fresh_system(trace_dir)
    manager = CheckpointManager(ckpt_dir)
    system.run(
        seconds=kill_after * ROUND,
        checkpoint=manager,
        checkpoint_every_rounds=every,
    )
    store.flush()  # the kill lands just past a flush boundary
    return system, store, manager


def resume_and_finish(trace_dir, ckpt_dir, *, rounds=TOTAL_ROUNDS):
    manager = CheckpointManager(ckpt_dir)
    found = manager.latest_valid()
    assert found is not None, "no valid checkpoint to resume from"
    _, state = found
    store = SegmentedTraceStore.recover(trace_dir)
    store.rollback(state["trace_records"])
    system = UUSeeSystem(make_config(), store)
    restore_into(system, state)
    remaining = rounds - system.rounds_completed
    if remaining > 0:
        system.run(seconds=remaining * ROUND)
    store.close()
    return system, store


def content_sha(trace_dir) -> str:
    recovered = SegmentedTraceStore.recover(trace_dir)
    try:
        return recovered.content_sha256()
    finally:
        recovered.close()


def per_file_shas(trace_dir) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in trace_dir.iterdir()
        if p.suffix == ".jsonl"
    }


def tracker_states(system):
    """The RNG state of every tracker (one, or each of a pool's)."""
    trackers = getattr(system.tracker, "_trackers", [system.tracker])
    return [t._rng.getstate() for t in trackers]


class TestKillBetweenCheckpoints:
    def test_resume_matches_uninterrupted_twin_bytewise(self, tmp_path):
        twin_a, twin_b = tmp_path / "a", tmp_path / "b"
        a_system, _ = run_uninterrupted(twin_a)
        # Kill at round 11 with checkpoints every 3: resume restarts at
        # round 9 and must replay rounds 10-11 identically.
        run_until_killed(twin_b, tmp_path / "ckpt", kill_after=11)
        b_system, _ = resume_and_finish(twin_b, tmp_path / "ckpt")
        assert b_system.rounds_completed == TOTAL_ROUNDS
        assert a_system.total_arrivals == b_system.total_arrivals
        assert a_system._rng.getstate() == b_system._rng.getstate()
        assert a_system.exchange.rng.getstate() == b_system.exchange.rng.getstate()
        # The two streams restored only by pickling their owners.
        assert a_system.arrivals._rng.getstate() == b_system.arrivals._rng.getstate()
        assert tracker_states(a_system) == tracker_states(b_system)
        assert draw_fingerprint(a_system) == draw_fingerprint(b_system)
        # Plain JSONL: not just equivalent content — identical files.
        assert per_file_shas(twin_a) == per_file_shas(twin_b)

    def test_continuation_is_draw_identical(self, tmp_path):
        # Twin A runs 9 rounds inline, then its continuation is audited;
        # twin B is killed at round 9 (a checkpoint boundary), resumed,
        # and its continuation must consume the very same draw sequence.
        twin_a, twin_b = tmp_path / "a", tmp_path / "b"
        a_system, a_store = fresh_system(twin_a)
        a_system.run(seconds=9 * ROUND)
        with DrawAudit() as audit_a:
            a_system.run(seconds=(TOTAL_ROUNDS - 9) * ROUND)
        a_store.close()

        run_until_killed(twin_b, tmp_path / "ckpt", kill_after=9, every=3)
        manager = CheckpointManager(tmp_path / "ckpt")
        _, state = manager.latest_valid()
        store = SegmentedTraceStore.recover(twin_b)
        store.rollback(state["trace_records"])
        b_system = UUSeeSystem(make_config(), store)
        restore_into(b_system, state)
        with DrawAudit() as audit_b:
            b_system.run(seconds=(TOTAL_ROUNDS - 9) * ROUND)
        store.close()

        assert audit_a.snapshot() == audit_b.snapshot()
        assert content_sha(twin_a) == content_sha(twin_b)


def write_v1_envelope(path, payload):
    """The version-1 writer: one pickle of the whole state behind the
    unpadded header, as checkpoints were written before streamed saves."""
    digest = hashlib.sha256(payload).hexdigest()
    header = f"{MAGIC.decode()} 1 {digest} {len(payload)}\n".encode()
    path.write_bytes(header + payload)


def rewrite_with_legacy_peers(path):
    """Re-encode a checkpoint file the way checkpoints were written before
    ``Peer.__reduce__``: every peer in the default slots protocol."""
    payload = legacy_peer_pickle(load_checkpoint(path))
    write_v1_envelope(path, payload)
    return payload


class TestPeerLevelLinkPickling:
    @pytest.mark.parametrize("rewrite", [None, "version_1", "legacy_peers"])
    def test_mid_campaign_resume_ends_on_uninterrupted_state(
        self, tmp_path, rewrite
    ):
        twin_a, twin_b = tmp_path / "a", tmp_path / "b"
        a_system, _ = run_uninterrupted(twin_a)
        _, _, manager = run_until_killed(twin_b, tmp_path / "ckpt", kill_after=11)
        newest = manager.checkpoints()[-1]
        if rewrite == "version_1":  # as written before streamed saves
            state = load_checkpoint(newest)
            write_v1_envelope(
                newest, pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            )
        elif rewrite == "legacy_peers":
            payload = rewrite_with_legacy_peers(newest)
            assert b"suppliers" in payload  # really the old slot-dict form
        # resumed from the rewritten file, not a fallback to an older one
        assert CheckpointManager(tmp_path / "ckpt").latest_valid()[0] == newest
        b_system, _ = resume_and_finish(twin_b, tmp_path / "ckpt")
        assert b_system.rounds_completed == TOTAL_ROUNDS
        assert draw_fingerprint(b_system) == draw_fingerprint(a_system)
        assert per_file_shas(twin_a) == per_file_shas(twin_b)


class TestKillMidCheckpoint:
    def test_torn_newest_checkpoint_falls_back_and_still_matches(self, tmp_path):
        twin_a, twin_b = tmp_path / "a", tmp_path / "b"
        run_uninterrupted(twin_a)
        _, _, manager = run_until_killed(
            twin_b, tmp_path / "ckpt", kill_after=12, every=3
        )
        newest = manager.checkpoints()[-1]
        blob = newest.read_bytes()
        newest.write_bytes(blob[: len(blob) // 3])  # torn mid-write
        resumed = CheckpointManager(tmp_path / "ckpt").latest_valid()
        assert resumed is not None
        path, state = resumed
        assert path != newest, "fallback should skip the torn file"
        assert state["rounds_completed"] == 9
        resume_and_finish(twin_b, tmp_path / "ckpt")
        assert content_sha(twin_a) == content_sha(twin_b)

    def test_all_checkpoints_torn_is_a_loud_failure(self, tmp_path):
        _, _, manager = run_until_killed(
            tmp_path / "b", tmp_path / "ckpt", kill_after=6, every=3
        )
        for path in manager.checkpoints():
            path.write_bytes(b"REPROCKPT garbage")
        assert CheckpointManager(tmp_path / "ckpt").latest_valid() is None


class TestKillMidRotation:
    def test_stale_manifest_with_full_unsealed_segment(self, tmp_path):
        twin_a, twin_b = tmp_path / "a", tmp_path / "b"
        run_uninterrupted(twin_a)
        _, store, _ = run_until_killed(twin_b, tmp_path / "ckpt", kill_after=11)
        # Regress the manifest to before the last sealing, as if the
        # crash struck after the segment filled but before the manifest
        # rename landed.
        assert store.sealed_segments, "scenario needs at least one sealed segment"
        import json

        manifest = json.loads((twin_b / "manifest.json").read_text())
        manifest["segments"] = manifest["segments"][:-1]
        (twin_b / "manifest.json").write_text(json.dumps(manifest))
        resume_and_finish(twin_b, tmp_path / "ckpt")
        assert content_sha(twin_a) == content_sha(twin_b)


class TestKillMidLine:
    def test_torn_trace_tail_is_truncated_and_replayed(self, tmp_path):
        twin_a, twin_b = tmp_path / "a", tmp_path / "b"
        run_uninterrupted(twin_a)
        _, store, _ = run_until_killed(twin_b, tmp_path / "ckpt", kill_after=11)
        active = twin_b / f"seg-{store._active_index:08d}.jsonl"
        with open(active, "ab") as fh:
            fh.write(b'{"time": 1e9, "peer_ip":')  # half a record
        resume_and_finish(twin_b, tmp_path / "ckpt")
        assert content_sha(twin_a) == content_sha(twin_b)


class TestResumeDeterminism:
    def test_resuming_twice_consumes_identical_draws(self, tmp_path):
        import shutil

        run_until_killed(tmp_path / "b", tmp_path / "ckpt", kill_after=10)
        counter = [0]

        def resume_copy() -> str:
            counter[0] += 1
            trace = tmp_path / f"copy{counter[0]}"
            ckpt = tmp_path / f"copyckpt{counter[0]}"
            shutil.copytree(tmp_path / "b", trace)
            shutil.copytree(tmp_path / "ckpt", ckpt)
            resume_and_finish(trace, ckpt)
            return content_sha(trace)

        outcomes = assert_identical_draws(resume_copy)
        assert len({digest for digest, _ in outcomes}) == 1


class TestOlderCheckpointKeys:
    def test_bare_loss_coin_state_and_no_exchange_clock_still_restore(self, tmp_path):
        # Older builds saved the trace server's loss coin as a bare RNG
        # state under "rng" and had no "exchange_clock" key.
        live, _ = fresh_system(tmp_path / "live")
        live.run(seconds=6 * ROUND)
        state = snapshot_system(live)
        server = state["trace_server"]
        state["trace_server"] = {
            "rng": server["injector"]["rng"],
            "received": server["received"],
            "dropped": server["dropped"],
        }
        del state["exchange_clock"]
        restored, _ = fresh_system(tmp_path / "restored")
        restore_into(restored, state)
        assert draw_fingerprint(restored) == draw_fingerprint(live)
        assert restored.exchange.clock == restored.now


class TestRunCampaign:
    def test_resume_without_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            run_campaign(tmp_path / "t", days=0.01, resume=True)

    def test_campaign_resume_extends_to_twin_equivalence(self, tmp_path):
        kwargs = dict(
            base_concurrency=BASE,
            seed=SEED,
            with_flash_crowd=False,
            checkpoint_every_rounds=3,
            records_per_segment=SEGMENT_RECORDS,
        )
        days = TOTAL_ROUNDS * ROUND / 86_400.0
        twin = run_campaign(tmp_path / "a", days=days, **kwargs)

        # Interrupted campaign: drive the same components manually,
        # abandon mid-run, then hand the wreckage to --resume.
        run_until_killed(tmp_path / "b", tmp_path / "b" / "checkpoints",
                         kill_after=11)
        resumed = run_campaign(
            tmp_path / "b", days=days, resume=True, **kwargs
        )
        assert resumed.resumed_from_round == 9
        assert resumed.rounds_completed == twin.rounds_completed
        assert resumed.trace_records == twin.trace_records
        assert content_sha(tmp_path / "a") == content_sha(tmp_path / "b")

    def test_checkpoint_config_mismatch_fails_loudly(self, tmp_path):
        run_until_killed(tmp_path / "b", tmp_path / "ckpt", kill_after=6)
        manager = CheckpointManager(tmp_path / "ckpt")
        _, state = manager.latest_valid()
        store = SegmentedTraceStore.recover(tmp_path / "b")
        other = UUSeeSystem(
            SystemConfig(seed=SEED + 1, base_concurrency=BASE, flash_crowd=None),
            store,
        )
        with pytest.raises(CheckpointError, match="different configuration"):
            restore_into(other, state)
        store.close()

    def test_bad_engine_leaves_no_campaign_behind(self, tmp_path):
        trace_dir = tmp_path / "d"
        with pytest.raises(ValueError, match="engine"):
            run_campaign(trace_dir, days=0.01, base_concurrency=20,
                         engine="vectorized")
        assert not trace_dir.exists() or not any(trace_dir.iterdir())
        result = run_campaign(trace_dir, days=0.01, base_concurrency=20)
        assert result.rounds_completed > 0

    def test_checkpoint_from_removed_engine_is_refused(self, tmp_path):
        system, _ = run_uninterrupted(tmp_path / "a", rounds=2)
        state = snapshot_system(system)
        assert state["engine"] == "object"
        state["engine"] = "soa"
        store = SegmentedTraceStore(tmp_path / "b")
        with pytest.raises(CheckpointError, match="removed"):
            restore_into(UUSeeSystem(make_config(), store), state)
        store.close()


class TestCheckpointEnvelope:
    def test_rotation_keeps_last_k(self, tmp_path):
        _, _, manager = run_until_killed(
            tmp_path / "b", tmp_path / "ckpt", kill_after=15, every=3
        )
        names = [p.name for p in manager.checkpoints()]
        assert names == [
            "ckpt-0000000009.bin",
            "ckpt-0000000012.bin",
            "ckpt-0000000015.bin",
        ]

    def test_envelope_validates_checksum_and_length(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"config_token": "x", "clock": (0.0, 0, 0)})
        assert load_checkpoint(path)["config_token"] == "x"
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload bit
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(path)
        path.write_bytes(bytes(blob[:-4]))
        with pytest.raises(CheckpointCorruptError, match="torn"):
            load_checkpoint(path)
        path.write_bytes(b"REPROCKPT 1 " + b"0" * 64 + b" 12x4\n")
        with pytest.raises(CheckpointCorruptError, match="torn"):
            load_checkpoint(path)  # a rotted length field is damage too
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)


def split_envelope(path):
    """``(header line, offset where the peer batches start, payload)``."""
    header, _, payload = path.read_bytes().partition(b"\n")
    stream = io.BytesIO(payload)
    pickle.load(stream)  # the state without its peers
    return header, stream.tell(), payload


def count_pickles(payload):
    stream = io.BytesIO(payload)
    count = 0
    while stream.tell() < len(payload):
        pickle.load(stream)
        count += 1
    return count


class TestStreamedEnvelope:
    def test_flipped_byte_in_a_peer_batch_fails_the_checksum(self, tmp_path):
        _, _, manager = run_until_killed(
            tmp_path / "b", tmp_path / "ckpt", kill_after=6, every=3
        )
        newest = manager.checkpoints()[-1]
        header, peers_at, payload = split_envelope(newest)
        assert header.split()[1] == str(VERSION).encode() == b"2"
        assert count_pickles(payload) > 1  # the state, then the peer batches
        blob = bytearray(payload)
        blob[(peers_at + len(blob)) // 2] ^= 0xFF
        newest.write_bytes(header + b"\n" + bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(newest)

    def test_torn_peer_section_falls_back_to_previous(self, tmp_path):
        _, _, manager = run_until_killed(
            tmp_path / "b", tmp_path / "ckpt", kill_after=12, every=3
        )
        newest = manager.checkpoints()[-1]
        header, peers_at, payload = split_envelope(newest)
        newest.write_bytes(header + b"\n" + payload[: peers_at + 100])
        with pytest.raises(CheckpointCorruptError, match="torn"):
            load_checkpoint(newest)
        path, state = CheckpointManager(tmp_path / "ckpt").latest_valid()
        assert path != newest
        assert state["rounds_completed"] == 9

    @pytest.mark.parametrize("count", [0, PEER_BATCH, PEER_BATCH + 1])
    def test_peers_round_trip_in_order(self, tmp_path, count):
        peers = {}
        for pid in range(count, 0, -1):  # descending: not sorted order
            peer = make_peer(pid)
            peer.add_partner(pid + 1, make_link(partner_ip=pid))
            peers[pid] = peer
        path = save_checkpoint(tmp_path / "ckpt.bin", {"peers": peers, "x": 1})
        loaded = load_checkpoint(path)
        assert list(loaded) == ["peers", "x"]
        assert list(loaded["peers"]) == list(peers)
        assert [peer_values(p) for p in loaded["peers"].values()] == [
            peer_values(p) for p in peers.values()
        ]
        _, _, payload = split_envelope(path)
        assert count_pickles(payload) == 1 + -(-count // PEER_BATCH)

    def test_save_traces_less_memory_than_the_file_holds(self, tmp_path):
        store = SegmentedTraceStore(tmp_path / "t")
        system = UUSeeSystem(
            SystemConfig(seed=1, base_concurrency=600.0, flash_crowd=None), store
        )
        system.run(seconds=2 * 3600.0)
        manager = CheckpointManager(tmp_path / "ckpt")
        tracemalloc.start()
        try:
            path = manager.save(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        store.close()
        # One dump of the whole state peaked at 3.8x the file's size.
        assert peak < path.stat().st_size


class TestSaveAccounting:
    def test_each_save_is_a_span_and_counts_its_bytes(self, tmp_path):
        from repro.obs import Observer

        obs = Observer()
        system, store = fresh_system(tmp_path / "b")
        manager = CheckpointManager(tmp_path / "ckpt", obs=obs)
        paths = []
        for _ in range(2):
            system.run(seconds=2 * ROUND)
            paths.append(manager.save(system))
        store.close()
        assert obs.registry.histogram("checkpoint.save").count == 2
        written = sum(path.stat().st_size for path in paths)
        assert obs.registry.counter("checkpoint.bytes").value == written


class TestCorruptSkipAccounting:
    """Skipped torn envelopes are observable, not silent (satellite 3)."""

    def test_latest_valid_counts_and_reports_skipped_envelopes(self, tmp_path):
        from repro.obs import Observer

        _, _, manager = run_until_killed(
            tmp_path / "b", tmp_path / "ckpt", kill_after=12, every=3
        )
        newest = manager.checkpoints()[-1]
        blob = newest.read_bytes()
        newest.write_bytes(blob[: len(blob) // 3])  # torn mid-write

        obs = Observer()
        reloaded = CheckpointManager(tmp_path / "ckpt", obs=obs)
        found = reloaded.latest_valid()
        assert found is not None
        assert reloaded.corrupt_skipped == 1
        assert obs.registry.counter("checkpoint.corrupt_skipped").value == 1

    def test_clean_resume_counts_nothing(self, tmp_path):
        from repro.obs import Observer

        _, _, _ = run_until_killed(
            tmp_path / "b", tmp_path / "ckpt", kill_after=6, every=3
        )
        obs = Observer()
        reloaded = CheckpointManager(tmp_path / "ckpt", obs=obs)
        assert reloaded.latest_valid() is not None
        assert reloaded.corrupt_skipped == 0
        assert obs.registry.counter("checkpoint.corrupt_skipped").value == 0


#: Bursty loss, reordering and corruption on the collection path.
CHANNEL_FAULTS = ChannelFaults(
    loss_rate=0.1, burst_length=4.0, reorder_rate=0.05, corrupt_rate=0.02
)


def channel_system(trace_dir, store=None):
    if store is None:
        store = SegmentedTraceStore(trace_dir, records_per_segment=SEGMENT_RECORDS)
    channel = FaultyChannel(store, CHANNEL_FAULTS, seed=11)
    return UUSeeSystem(make_config(), channel), channel


def as_parent_channel_state(state):
    """``state`` as a build without the store hook wrote it: the channel's
    fields under ``"channel"``, its counters as the live object."""
    hook = state.pop("store")
    state["channel"] = {
        "rng": hook["rng"],
        "in_burst": hook["in_burst"],
        "held": hook["held"],
        "held_for": hook["held_for"],
        "counters": ChannelCounters(**hook["counters"]),
    }
    state["ingest_client"] = None
    return state


class TestFaultyChannelCheckpoint:
    @pytest.mark.parametrize("written_by", ["store_hook", "parent"])
    def test_mid_run_resume_ends_on_uninterrupted_run(self, tmp_path, written_by):
        a_system, a_channel = channel_system(tmp_path / "a")
        a_system.run(seconds=TOTAL_ROUNDS * ROUND)
        a_channel.close()

        b_system, b_channel = channel_system(tmp_path / "b")
        manager = CheckpointManager(tmp_path / "ckpt")
        b_system.run(
            seconds=11 * ROUND, checkpoint=manager, checkpoint_every_rounds=3
        )
        b_channel.store.flush()  # killed: the held report dies with it
        path, state = manager.latest_valid()
        assert state["rounds_completed"] == 9
        assert state["store"]["held"] is not None  # a held report crosses the cut
        if written_by == "parent":
            save_checkpoint(path, as_parent_channel_state(state))
            _, state = manager.latest_valid()
            assert "store" not in state

        store = SegmentedTraceStore.recover(tmp_path / "b")
        store.rollback(state["trace_records"])
        c_system, c_channel = channel_system(tmp_path / "b", store)
        restore_into(c_system, state)
        c_system.run(seconds=(TOTAL_ROUNDS - 9) * ROUND)
        c_channel.close()

        assert c_system.rounds_completed == TOTAL_ROUNDS
        assert draw_fingerprint(c_system) == draw_fingerprint(a_system)
        assert c_channel.counters == a_channel.counters
        assert a_channel.counters.dropped > 0 and a_channel.counters.corrupted > 0
        assert a_channel.counters.reordered > 0
        assert per_file_shas(tmp_path / "b") == per_file_shas(tmp_path / "a")

    def test_save_leaves_a_held_report_held(self, tmp_path):
        system, channel = channel_system(tmp_path / "t")
        system.run(seconds=3 * ROUND)
        held = channel._held = report_at(float(3 * ROUND))
        channel._held_for = 0
        CheckpointManager(tmp_path / "ckpt").save(system)
        assert channel._held is held
        assert channel.store._pending == 0  # synced through the channel
        channel.close()

    @pytest.mark.parametrize("key", ["store", "ingest_client", "channel"])
    def test_restore_reads_the_hook_under_every_key(self, tmp_path, key):
        source, _ = channel_system(tmp_path / "a")
        source.run(seconds=2 * ROUND)
        state = snapshot_system(source)
        state[key] = state.pop("store")
        target, channel = channel_system(tmp_path / "b")
        restore_into(target, state)
        assert channel.checkpoint_state() == source.trace_server.store.checkpoint_state()

    def test_hook_state_without_a_hook_store_is_refused(self, tmp_path):
        source, _ = channel_system(tmp_path / "a")
        state = snapshot_system(source)
        target, _ = fresh_system(tmp_path / "b")
        with pytest.raises(CheckpointError, match="cannot restore"):
            restore_into(target, state)
