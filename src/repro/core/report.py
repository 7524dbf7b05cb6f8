"""Text and CSV rendering of experiment results.

The benchmark harness prints the same rows/series the paper's figures
plot; these helpers keep that output aligned and machine-readable.
The figure renderers at the end print what ``repro analyze`` shows of
each figure.
"""

from __future__ import annotations

import csv
from pathlib import Path
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.core.timeseries import SnapshotSeries
from repro.traces.health import TraceHealth

if TYPE_CHECKING:
    from repro.core.experiments import (
        Fig1Result,
        Fig3Result,
        Fig4Result,
        Fig5Result,
        Fig6Result,
        Fig7Result,
        Fig8Result,
    )


def _fmt(value: object, precision: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    precision: int = 3,
    title: str | None = None,
) -> str:
    """Align rows under headers; floats rendered at ``precision``."""
    rendered = [[_fmt(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    series: SnapshotSeries,
    columns: Sequence[str],
    *,
    precision: int = 3,
    title: str | None = None,
    time_unit: str = "hours",
) -> str:
    """Render a SnapshotSeries with a time column first."""
    divisor = {"seconds": 1.0, "hours": 3_600.0, "days": 86_400.0}[time_unit]
    rows = []
    for t, row in series.rows():
        rows.append([t / divisor] + [row.get(c) for c in columns])
    return format_table(
        [f"t_{time_unit}"] + list(columns), rows, precision=precision, title=title
    )


def format_trace_health(
    health: TraceHealth, *, title: str = "Trace health"
) -> str:
    """Render a tolerant pass's TraceHealth counters as a table."""
    suffix = "" if health.dirty else " (clean)"
    return format_table(
        ["counter", "value"], health.rows(), title=title + suffix
    )


def write_csv(
    path: str | Path,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> Path:
    """Write rows to a CSV file; returns the path."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(list(row))
    return path


# ----------------------------------------------------------- figures
#
# Each renderer prints one figure's tables, writes its CSV files into
# ``csv_dir`` (when set) and returns its ``repro analyze --json``
# payload; ``repro.core.experiments.FIGURES`` pairs it with its plans.


def render_fig1(csv_dir: Path | None, result: Fig1Result) -> dict[str, object]:
    print(format_series(result.series, ["total", "stable"], title="Fig. 1(A) simultaneous peers"))
    print()
    print(format_table(["day", "total IPs", "stable IPs"], result.daily, title="Fig. 1(B) daily distinct IPs"))
    print(f"\nstable/total ratio: {result.stable_ratio():.3f} (paper: ~1/3)")
    if csv_dir:
        rows = zip(result.series.times, result.series.values.get("total", ()), result.series.values.get("stable", ()))
        write_csv(csv_dir / "fig1a.csv", ["t", "total", "stable"], rows)
        write_csv(csv_dir / "fig1b.csv", ["day", "total", "stable"], result.daily)
    return {
        "times": list(result.series.times),
        "total": list(result.series.values.get("total", ())),
        "stable": list(result.series.values.get("stable", ())),
        "daily": [list(row) for row in result.daily],
        "stable_ratio": result.stable_ratio(),
    }


def render_fig2(csv_dir: Path | None, shares: dict[str, float]) -> dict[str, object]:
    rows = sorted(shares.items(), key=lambda kv: kv[1], reverse=True)
    print(format_table(["ISP", "share"], rows, title="Fig. 2 ISP shares"))
    if csv_dir:
        write_csv(csv_dir / "fig2.csv", ["isp", "share"], rows)
    return {"shares": dict(rows)}


def render_fig3(csv_dir: Path | None, result: Fig3Result) -> dict[str, object]:
    print(format_series(result.series, list(result.channels), title="Fig. 3 streaming quality"))
    for name in result.channels:
        print(f"mean {name}: {result.mean_quality(name):.3f} (paper: ~0.75)")
    if csv_dir:
        cols = list(result.channels)
        rows = [
            [t] + [row.get(c) for c in cols] for t, row in result.series.rows()
        ]
        write_csv(csv_dir / "fig3.csv", ["t"] + cols, rows)
    return {
        "times": list(result.series.times),
        "quality": {name: list(result.series.values.get(name, ())) for name in result.channels},
        "mean_quality": {name: result.mean_quality(name) for name in result.channels},
    }


def render_fig4(csv_dir: Path | None, result: Fig4Result) -> dict[str, object]:
    payload = {}
    for label, kinds in result.distributions.items():
        rows = [
            [kind, dist.mode(), round(dist.mean(), 1), dist.max_degree()]
            for kind, dist in kinds.items()
        ]
        print(format_table(["kind", "mode", "mean", "max"], rows, title=f"Fig. 4 degrees @ {label}"))
        print()
        payload[label] = {
            kind: {"mode": dist.mode(), "mean": dist.mean(), "max": dist.max_degree()}
            for kind, dist in kinds.items()
        }
        if csv_dir:
            for kind, dist in kinds.items():
                tag = label.replace(" ", "_")
                write_csv(
                    csv_dir / f"fig4_{tag}_{kind}.csv",
                    ["degree", "fraction"],
                    dist.pmf(),
                )
    return {"distributions": payload}


def render_fig5(csv_dir: Path | None, result: Fig5Result) -> dict[str, object]:
    rows = [
        [t / 3600.0, d.mean_partners, d.mean_indegree, d.mean_outdegree]
        for t, d in zip(result.series.times, result.series.values.get("degrees", ()))
    ]
    print(format_table(["t_hours", "partners", "indegree", "outdegree"], rows, title="Fig. 5 average degrees"))
    if csv_dir:
        write_csv(csv_dir / "fig5.csv", ["t_hours", "partners", "in", "out"], rows)
    return {"columns": ["t_hours", "partners", "indegree", "outdegree"], "rows": rows}


def render_fig6(csv_dir: Path | None, result: Fig6Result) -> dict[str, object]:
    rows = [
        [t / 3600.0, v.indegree_fraction, v.outdegree_fraction]
        for t, v in zip(result.series.times, result.series.values.get("intra", ()))
    ]
    print(format_table(["t_hours", "intra in", "intra out"], rows, title="Fig. 6 intra-ISP degree fractions"))
    print(f"ISP-blind baseline: {result.random_baseline:.3f}")
    if csv_dir:
        write_csv(csv_dir / "fig6.csv", ["t_hours", "in", "out"], rows)
    return {
        "columns": ["t_hours", "intra_in", "intra_out"],
        "rows": rows,
        "random_baseline": result.random_baseline,
    }


def render_fig7(csv_dir: Path | None, *results: Fig7Result) -> dict[str, object]:
    payload = {}
    for result in results:
        tag = result.isp or "global"
        rows = [
            [t / 3600.0, m.clustering, m.random_clustering, m.path_length, m.random_path_length]
            for t, m in zip(result.series.times, result.series.values.get("sw", ()))
        ]
        print(format_table(
            ["t_hours", "C", "C_rand", "L", "L_rand"], rows,
            title=f"Fig. 7 small world ({tag})",
        ))
        print()
        payload[tag] = {
            "columns": ["t_hours", "C", "C_rand", "L", "L_rand"],
            "rows": rows,
        }
        if csv_dir:
            write_csv(
                csv_dir / f"fig7_{tag.replace(' ', '_')}.csv",
                ["t_hours", "C", "C_rand", "L", "L_rand"],
                rows,
            )
    return payload


def render_fig8(csv_dir: Path | None, result: Fig8Result) -> dict[str, object]:
    rows = [
        [t / 3600.0, m.all_links, m.intra_isp, m.inter_isp]
        for t, m in zip(result.series.times, result.series.values.get("rho", ()))
    ]
    print(format_table(["t_hours", "rho all", "rho intra", "rho inter"], rows, title="Fig. 8 edge reciprocity"))
    if csv_dir:
        write_csv(csv_dir / "fig8.csv", ["t_hours", "all", "intra", "inter"], rows)
    return {"columns": ["t_hours", "rho_all", "rho_intra", "rho_inter"], "rows": rows}


def render_windows(csv_dir: Path | None, series: SnapshotSeries) -> dict[str, object]:
    rows = [
        [
            t / 3600.0,
            deg["partners"].num_peers,
            deg["partners"].mean(),
            rho,
            clu,
        ]
        for t, deg, rho, clu in zip(
            series.times,
            series.values.get("degrees", ()),
            series.values.get("reciprocity", ()),
            series.values.get("clustering", ()),
        )
    ]
    print(format_table(
        ["t_hours", "peers", "mean partners", "rho", "C"],
        rows,
        title="per-window structure (incremental)",
    ))
    if csv_dir:
        write_csv(
            csv_dir / "windows.csv",
            ["t_hours", "peers", "mean_partners", "rho", "C"],
            rows,
        )
    return {
        "columns": ["t_hours", "peers", "mean_partners", "rho", "C"],
        "rows": rows,
        "analytics": "incremental",
    }
