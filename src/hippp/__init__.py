"""Design and evaluation of lite-sparse hierarchical partial power processing.

The package models a series string of heterogeneous batteries whose output is
limited by its weakest member, and designs small sets of partial power
converters that recover most of the lost capacity at a fraction of the
full-processing converter rating.

Layout:

* :mod:`hippp.supply` turns a battery population model into discrete
  expected capabilities and Monte Carlo samples.
* :mod:`hippp.lp` is a deterministic bounded-variable simplex solver.
* :mod:`hippp.architecture` declares the three converter architectures.
* :mod:`hippp.powerflow` finds the optimal dispatch for one battery set, or
  for a block of them.
* :mod:`hippp.design` picks layer-1 interconnections and converter ratings.
* :mod:`hippp.evaluate` runs Monte Carlo comparisons and sweeps.
* :mod:`hippp.cli` is the command-line front end.
"""

from .architecture import (
    Architecture,
    ArchitectureKind,
    ConverterEdge,
    Layer1Design,
    aggregate_rating,
    cppp_from_budget,
    fpp_from_budget,
)
from .design import (
    DesignConfig,
    Layer2Curve,
    design_layer1,
    design_layer2,
    interconnection_count,
    lshippp_for_budget,
    partition_ratings,
)
from .errors import (
    ConfigError,
    EnumerationCapError,
    HipppError,
    InternalCheckError,
    ParameterError,
    StructuralError,
    UndefinedMetricError,
)
from .evaluate import (
    DEFAULT_CONVERTER_EFFICIENCY,
    MetricsRecord,
    SweepCell,
    evaluate_architecture,
    evaluate_cells,
    sweep_figures,
    sweep_heterogeneity,
    sweep_rating,
    system_efficiency,
)
from .powerflow import (
    PowerFlowSolution,
    architecture_edges,
    flow_powers,
    max_string_outputs,
    optimal_flow,
)
from .supply import (
    BatterySample,
    BatterySupply,
    ExpectedSet,
    draw_capabilities,
    flatten,
    sample_battery_set,
)

__version__ = "0.1.0"

__all__ = [
    "Architecture",
    "ArchitectureKind",
    "BatterySample",
    "BatterySupply",
    "ConfigError",
    "ConverterEdge",
    "DEFAULT_CONVERTER_EFFICIENCY",
    "DesignConfig",
    "EnumerationCapError",
    "ExpectedSet",
    "HipppError",
    "InternalCheckError",
    "Layer1Design",
    "Layer2Curve",
    "MetricsRecord",
    "ParameterError",
    "PowerFlowSolution",
    "StructuralError",
    "SweepCell",
    "UndefinedMetricError",
    "aggregate_rating",
    "architecture_edges",
    "cppp_from_budget",
    "design_layer1",
    "design_layer2",
    "draw_capabilities",
    "evaluate_architecture",
    "evaluate_cells",
    "flatten",
    "flow_powers",
    "fpp_from_budget",
    "interconnection_count",
    "lshippp_for_budget",
    "max_string_outputs",
    "optimal_flow",
    "partition_ratings",
    "sample_battery_set",
    "sweep_figures",
    "sweep_heterogeneity",
    "sweep_rating",
    "system_efficiency",
    "__version__",
]
