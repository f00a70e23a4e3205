"""Analysis tooling: histograms and the JAS-style plug-in (§6).

The paper's Java Analysis Studio plug-in submits queries through the
web-service interface and visualizes the returned rows as histograms;
:class:`~repro.analysis.jasplugin.JASPlugin` does the same against a
:class:`~repro.core.federation.GridFederation`, rendering text
histograms suitable for terminals and logs.
"""

from repro.analysis.cutflow import CutFlow, CutStage, grid_cutflow
from repro.analysis.histogram import Histogram1D
from repro.analysis.histservice import (
    HistogramService,
    histogram_from_wire,
    histogram_to_wire,
)
from repro.analysis.jasplugin import JASPlugin

__all__ = [
    "CutFlow",
    "CutStage",
    "Histogram1D",
    "HistogramService",
    "JASPlugin",
    "grid_cutflow",
    "histogram_from_wire",
    "histogram_to_wire",
]
