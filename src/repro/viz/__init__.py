"""Trace visualisation.

ASCII renderings of executions — the textual analogue of the paper's
space-time diagrams (Figure 3, the execution halves of Figures 5/6).
"""

from repro.viz.ascii_chart import Series, curves_chart, line_chart
from repro.viz.spacetime import render_messages, render_spacetime

__all__ = [
    "Series",
    "curves_chart",
    "line_chart",
    "render_messages",
    "render_spacetime",
]
