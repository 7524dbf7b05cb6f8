"""Unit tests for the latency/throughput model and bandwidth sampler."""

import math
import random
import statistics

import pytest

from repro.network import (
    DEFAULT_BANDWIDTH_CLASSES,
    BandwidthClass,
    BandwidthSampler,
    LatencyModel,
    LinkQuality,
)


class TestLatencyModel:
    def test_intra_isp_faster_than_inter(self):
        model = LatencyModel(seed=0)
        intra = model.base_rtt("A", "A", a_china=True, b_china=True)
        inter = model.base_rtt("A", "B", a_china=True, b_china=True)
        overseas = model.base_rtt("A", "Oversea ISPs", a_china=True, b_china=False)
        assert intra < inter < overseas

    def test_intra_overseas_tier(self):
        model = LatencyModel(seed=0)
        both = model.base_rtt("Oversea ISPs", "Oversea ISPs", a_china=False, b_china=False)
        assert both == model.tiers.intra_overseas

    def test_sampled_intra_links_better_on_average(self):
        model = LatencyModel(seed=1)
        intra = [model.sample_link("A", "A").throughput_kbps for _ in range(400)]
        inter = [model.sample_link("A", "B").throughput_kbps for _ in range(400)]
        assert statistics.mean(intra) > 2 * statistics.mean(inter)

    def test_throughput_floor(self):
        model = LatencyModel(min_throughput_kbps=8.0, seed=2)
        for _ in range(200):
            link = model.sample_link("A", "Oversea ISPs", a_china=True, b_china=False)
            assert link.throughput_kbps >= 8.0

    def test_score_prefers_fast_links(self):
        good = LinkQuality(rtt_ms=20.0, throughput_kbps=600.0)
        bad = LinkQuality(rtt_ms=250.0, throughput_kbps=60.0)
        assert good.score() > bad.score()

    def test_link_quality_is_an_immutable_record(self):
        q = LinkQuality(rtt_ms=50.0, throughput_kbps=300.0)
        assert q == LinkQuality(50.0, 300.0)
        assert (q.rtt_ms, q.throughput_kbps) == (50.0, 300.0)
        assert q.score() == 300.0 / 1.5
        rtt, throughput = q
        assert (rtt, throughput) == (50.0, 300.0)
        with pytest.raises(AttributeError):
            q.rtt_ms = 10.0

    def test_sample_link_draws_the_tier_model(self):
        # Bit-exact against the model written out longhand: a lognormal
        # RTT around the tier median, then a jittered, floored 1/RTT ceiling.
        # The generator's whole state, Box–Muller cache included, must
        # match after every draw.  A stray gauss() at draw 40 leaves half
        # a pair pending, so draws 40-79 take the fallback path; the one
        # at draw 80 consumes it and the fast path resumes.
        model = LatencyModel(seed=9, min_throughput_kbps=60.0)
        twin = random.Random(9)
        pending = []
        for i, (isp_b, b_china) in enumerate(
            [("A", True), ("B", True), ("C", False)] * 40
        ):
            if i in (40, 80):
                assert model._rng.gauss() == twin.gauss()
            pending.append(model._rng.gauss_next is not None)
            median = model.base_rtt("A", isp_b, a_china=True, b_china=b_china)
            rtt = median * math.exp(twin.gauss(0.0, model.rtt_sigma))
            throughput = model.window_kbits / rtt
            throughput *= math.exp(twin.gauss(0.0, 0.25))
            expected = LinkQuality(rtt, max(60.0, throughput))
            assert model.sample_link("A", isp_b, b_china=b_china) == expected
            assert model._rng.getstate() == twin.getstate()
        assert pending == [False] * 40 + [True] * 40 + [False] * 40

    def test_rtt_jitter_positive(self):
        model = LatencyModel(seed=3)
        rtts = [model.sample_link("A", "A").rtt_ms for _ in range(100)]
        assert all(r > 0 for r in rtts)
        assert len({round(r, 6) for r in rtts}) > 50  # actually jittered


class TestBandwidthSampler:
    def test_default_classes_weights(self):
        assert sum(c.weight for c in DEFAULT_BANDWIDTH_CLASSES) == pytest.approx(1.0)

    def test_sampling_distribution(self):
        sampler = BandwidthSampler(seed=4)
        draws = [sampler.sample() for _ in range(5000)]
        adsl_frac = sum(1 for d in draws if d.class_name == "adsl") / len(draws)
        assert adsl_frac == pytest.approx(0.58, abs=0.04)

    def test_upload_above_stream_rate_for_most_peers(self):
        # The paper: 400 kbps rate is lower than the upload capacity of
        # most ADSL/cable peers.
        sampler = BandwidthSampler(seed=5)
        draws = [sampler.sample() for _ in range(3000)]
        above = sum(1 for d in draws if d.upload_kbps > 400.0) / len(draws)
        assert above > 0.6

    def test_mean_upload(self):
        sampler = BandwidthSampler(seed=6)
        nominal = sampler.mean_upload_kbps()
        empirical = statistics.mean(s.upload_kbps for s in (sampler.sample() for _ in range(8000)))
        assert empirical == pytest.approx(nominal, rel=0.1)

    def test_deterministic(self):
        a = BandwidthSampler(seed=7)
        b = BandwidthSampler(seed=7)
        assert [a.sample() for _ in range(20)] == [b.sample() for _ in range(20)]

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            BandwidthSampler(())
        with pytest.raises(ValueError):
            BandwidthSampler((BandwidthClass("x", 1.0, 1.0, 0.0),))

    def test_heavy_tail_exists(self):
        sampler = BandwidthSampler(seed=8)
        ups = sorted(s.upload_kbps for s in (sampler.sample() for _ in range(4000)))
        p50 = ups[len(ups) // 2]
        p99 = ups[int(len(ups) * 0.99)]
        assert p99 > 5 * p50  # campus tail far above the median
