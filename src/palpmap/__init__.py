"""Stiffness mapping and surface registration for simulated robotic palpation."""

from .acquisition import SamplingPolicy, expected_improvement, select_next
from .care import (CMUConfig, CompatibleSet, ProbeMeasurement, RegistrationResult,
                   SeedOutcome, SetCollector, StiffnessSample, cmu_register,
                   default_seed_transforms, estimate_stiffness)
from .cli import (ExperimentConfig, ExperimentReport, RunArtifacts,
                  compare_strategies, evaluate, execute_experiment, load_config,
                  main, run_experiment, write_run_outputs)
from .errors import (ConfigError, DegenerateGeometryError,
                     ExplorationExhaustedError, InsufficientDataError,
                     InvalidInputError, NumericalConditioningError,
                     OutOfWorkspaceError, PalpmapError)
from .geometry import (Neighbourhoods, RigidTransform, TriMesh, load_mesh,
                       make_transform, rigid_fit_svd, rms_error)
from .gp import (GPModel, KernelParams, Prediction, TrainingSet, gp_fit,
                 gp_predict, kernel_matrix)
from .simulator import (ArteryRidge, NoiseSpec, PhantomSpec, ProbeConfig, ROI,
                        artery_phantom, grid_shape, initial_samples, load_phantom,
                        make_surface_mesh, multimodal_phantom, prediction_grid,
                        probe, save_phantom, stiffness_field, uniform_lattice,
                        StiffnessBump)

__version__ = "0.1.0"

__all__ = [
    "ArteryRidge", "CMUConfig", "CompatibleSet", "ConfigError",
    "DegenerateGeometryError", "ExperimentConfig", "ExperimentReport",
    "ExplorationExhaustedError", "GPModel", "InsufficientDataError",
    "InvalidInputError", "KernelParams", "Neighbourhoods", "NoiseSpec",
    "NumericalConditioningError", "OutOfWorkspaceError", "PalpmapError",
    "PhantomSpec", "Prediction", "ProbeConfig", "ProbeMeasurement", "ROI",
    "RegistrationResult", "RigidTransform", "RunArtifacts", "SamplingPolicy",
    "SeedOutcome", "SetCollector", "StiffnessBump", "StiffnessSample",
    "TrainingSet", "TriMesh", "artery_phantom", "cmu_register",
    "compare_strategies", "default_seed_transforms", "estimate_stiffness",
    "evaluate", "execute_experiment", "expected_improvement", "gp_fit", "gp_predict",
    "grid_shape", "initial_samples", "kernel_matrix", "load_config",
    "load_mesh", "load_phantom", "main", "make_surface_mesh", "make_transform",
    "multimodal_phantom", "prediction_grid", "probe", "rigid_fit_svd",
    "rms_error", "run_experiment", "save_phantom", "select_next",
    "stiffness_field", "uniform_lattice", "write_run_outputs",
]
