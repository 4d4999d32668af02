"""Text rendering and machine-readable export of study results."""

from .export import export_figure_data, export_summary_json, export_traces_csv
from .figures import (
    bar_chart,
    per_trace_bars,
    spike_plot,
    time_series,
    traceroute_tree,
    world_map,
)
from .report import (
    full_report,
    render_figure1,
    render_figure2,
    render_figure3,
    render_figure4,
    render_figure5,
    render_figure6,
    render_quic_table,
    render_table1,
    render_table2,
)
from .tables import render_table

__all__ = [
    "bar_chart",
    "export_figure_data",
    "export_summary_json",
    "export_traces_csv",
    "full_report",
    "per_trace_bars",
    "render_figure1",
    "render_figure2",
    "render_figure3",
    "render_figure4",
    "render_figure5",
    "render_figure6",
    "render_quic_table",
    "render_table",
    "render_table1",
    "render_table2",
    "spike_plot",
    "time_series",
    "traceroute_tree",
    "world_map",
]
