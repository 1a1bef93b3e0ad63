"""palpsim: tactile localization and 3D surface reconstruction of rigid
sub-dermal inclusions in a layered soft phantom.

Pipeline: synthesize/ingest a surface cloud, register it into a uniform
surface grid, search palpation cells with GP-driven Bayesian
optimization (or random search), probe and contour-follow with a
contact-safe impedance controller, then score the reconstructed tumor
surface with the F-score metric.
"""

from . import errors
from .calibration import (
    CalibrationParams,
    EulerZYX,
    ForceReading,
    compensate_tip_weight,
    euler_from_axis,
    remove_z_offset,
    rotation_zyx,
)
from .evaluation import (
    FScoreReport,
    aggregate_trials,
    extract_contact_points,
    fscore,
    reconstruct_mesh,
)
from .experiment import (
    CloudParams,
    ConditionReport,
    ExperimentConfig,
    MatrixReport,
    TrialOutcome,
    config_from_flat,
    default_config,
    load_config_file,
    run_experiment,
    run_matrix,
    run_trial,
    table1_matrix,
)
from .phantom import (
    Phantom,
    PhantomConfig,
    PointCloud,
    SurfaceProfile,
    TumorGeometry,
    cyl_bump,
    flat_profile,
    gauss_bump,
)
from .ply import export_mesh_ply, export_ply, read_ply
from .policy import (
    BOUNDARY_REACHED,
    LOST_CONTACT,
    TIMEOUT,
    ControllerGains,
    PalpationTrajectory,
    ProbeParams,
    ProbePlant,
    ProbeResult,
    admissible_force,
    contour_follow,
    impedance_force,
    min_jerk_offset,
    probe_cell,
    run_policy,
)
from .registration import (
    RoiBox,
    SurfaceGrid,
    SurfaceMesh,
    cell_to_surface,
    crop_roi,
    interpolate_grid,
    mesh_from_cloud,
    preprocess_cloud,
)
from .search import (
    Acquisition,
    GPHyper,
    GPModel,
    StiffnessSample,
    gp_fit,
    next_cell_bo,
    next_cell_random,
)

__version__ = "0.1.0"
