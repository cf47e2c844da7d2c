"""Experiment harness: runner, per-figure reproductions, user survey."""

from repro.experiments.campaign import run_campaign
from repro.experiments.execution import (
    EXIT_DEGRADED,
    CheckpointError,
    CheckpointStore,
    ExecutionError,
    ExecutionInterrupted,
    ExecutionPolicy,
    MapOutcome,
    TaskFailure,
    WorkerFaultInjector,
    execute,
    install_worker_fault,
    supervised_map,
)
from repro.experiments.fleet import (
    ClientGroup,
    FleetResult,
    FleetSpec,
    expand_population,
    format_fleet_report,
    run_fleet,
)
from repro.experiments.multiclient import (
    ClientSpec,
    MulticlientResult,
    Shard,
    build_shard,
    run_multiclient,
)
from repro.experiments.runner import (
    ExperimentConfig,
    TrialSummary,
    compare,
    run_single,
    run_trials,
)
from repro.experiments.survey import (
    DIMENSIONS,
    SurveyResult,
    fig14_survey,
    run_survey,
)
from repro.experiments.sweep import (
    SweepSpec,
    dry_run_rows,
    run_sweep,
    validate_rows,
)
from repro.experiments import figures

__all__ = [
    "EXIT_DEGRADED",
    "CheckpointError",
    "CheckpointStore",
    "ClientGroup",
    "ClientSpec",
    "ExecutionError",
    "ExecutionInterrupted",
    "ExecutionPolicy",
    "MapOutcome",
    "TaskFailure",
    "WorkerFaultInjector",
    "execute",
    "install_worker_fault",
    "supervised_map",
    "ExperimentConfig",
    "FleetResult",
    "FleetSpec",
    "MulticlientResult",
    "Shard",
    "TrialSummary",
    "build_shard",
    "compare",
    "expand_population",
    "run_campaign",
    "format_fleet_report",
    "run_fleet",
    "run_multiclient",
    "run_single",
    "run_trials",
    "SweepSpec",
    "dry_run_rows",
    "run_sweep",
    "validate_rows",
    "DIMENSIONS",
    "SurveyResult",
    "fig14_survey",
    "run_survey",
    "figures",
]
