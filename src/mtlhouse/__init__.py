"""Multi-task regularized regression toolkit for house price prediction."""

from .backtest import (
    ComparisonReport,
    MethodSpec,
    RollingPlan,
    Round,
    make_rolling_plan,
    run_backtest,
)
from .baselines import cv_ridge_penalty, fit_stl
from .data import (
    Dataset,
    FeatureSchema,
    HouseRecord,
    load_dataset,
    melbourne_schema,
    save_dataset,
)
from .design import DesignLayout, TaskData, WeightMatrix, build_task_data, design_rows
from .metrics import (
    MethodSummary,
    MetricRecord,
    RankSumOutcome,
    aggregate,
    mae,
    rmse,
    wilcoxon_rank_sum,
    win_loss_draw,
)
from .solver import (
    FitResult,
    RegularizerSpec,
    SolverParams,
    TaskGraph,
    build_task_graph,
    fit,
    objective,
    prox_l1,
    prox_l21,
    smooth_gradient,
    smooth_objective,
)
from .synthetic import SyntheticConfig, generate_synthetic, planted_design
from .tasks import (
    FacilityDef,
    IntersectionDef,
    QuartileGrouping,
    RegionDef,
    SchoolDef,
    StationDef,
    TaskSet,
    define_tasks,
    format_definition,
    parse_definition,
    quartile_groups,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
