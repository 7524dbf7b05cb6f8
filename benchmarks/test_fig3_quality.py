"""Fig. 3 — percentage of peers with satisfactory streaming rates.

Paper: ~3/4 of CCTV1 and CCTV4 viewers receive >= 90% of the channel
rate, consistently over time, slightly *higher* at daily peak hours,
with a sharp increase for CCTV4 during the flash crowd — the paper's
scalability headline.
"""

from benchmarks.conftest import DAY, FLASH_PEAK, show


def test_fig3_streaming_quality(benchmark, paper_figures):
    result = paper_figures(benchmark)["fig3"]
    cctv1 = result.mean_quality("CCTV1")
    cctv4 = result.mean_quality("CCTV4")
    previous_evening = FLASH_PEAK - DAY
    rows = [
        ["CCTV1 mean satisfied", "~0.75", cctv1],
        ["CCTV4 mean satisfied", "~0.75", cctv4],
        ["CCTV1 at flash crowd", "no collapse", result.quality_at("CCTV1", FLASH_PEAK)],
        ["CCTV1 prev evening", "-", result.quality_at("CCTV1", previous_evening)],
        ["CCTV4 at flash crowd", "sharp increase", result.quality_at("CCTV4", FLASH_PEAK)],
        ["CCTV4 prev evening", "-", result.quality_at("CCTV4", previous_evening)],
    ]
    show("Fig. 3 streaming quality", ["metric", "paper", "measured"], rows)

    assert 0.6 <= cctv1 <= 0.99
    assert 0.6 <= cctv4 <= 0.995
    # scalability: the flash crowd does not collapse streaming quality
    fc1 = result.quality_at("CCTV1", FLASH_PEAK)
    assert fc1 is not None and fc1 > 0.55
    fc4 = result.quality_at("CCTV4", FLASH_PEAK)
    assert fc4 is not None and fc4 > 0.55
