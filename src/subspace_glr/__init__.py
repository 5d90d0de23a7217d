"""Two-channel GLR detection of a shared rank-one subspace signal.

A surveillance array and a reference array each observe L sensors of
colored Gaussian noise; the reference also carries a rank-one signature of
an unknown emitter waveform. The package provides the exact generalized
likelihood ratio test for whether the surveillance array carries the same
signature, two closed-form approximations, three baseline statistics, and
a reproducible Monte Carlo harness with a command-line front end.
"""

__version__ = "0.1.0"

from .covariance import (
    BeamformerPair,
    BlockSampleCov,
    block_sample_cov,
    capon_pair,
    coherence_matrix,
    cost_forms,
    sample_cov,
)
from .dataio import (
    read_snapshot_bin,
    read_snapshot_csv,
    read_snapshots,
    read_steering_csv,
    write_snapshot_bin,
    write_snapshot_csv,
    write_steering_csv,
)
from .detectors import (
    COHERENCE_FLOOR,
    DETECTOR_NAMES,
    PROPOSED_DETECTORS,
    BlockScores,
    DegenerateSampleError,
    compute_report,
    cross_corr_stat,
    glr_exact,
    glr_low,
    glr_sample,
    score_batch,
    sigma_max_coherence,
    svd_corr_stat,
)
from .model import (
    ScenarioConfig,
    SnapshotData,
    SteeringPair,
    draw_sample_cov,
)
from .montecarlo import (
    ExperimentConfig,
    PmPoint,
    RocCurve,
    SweepSpec,
    calibrate_threshold,
    pm_at,
    roc_curve,
    run_null_dist,
    run_one_trial,
    run_pm_sweep,
    run_roc_experiment,
    run_trials,
    wilks_diag,
)
from .optimizer import (
    STOP_REASONS,
    OptimResult,
    cost_j,
    grad_hess_j,
    maximize_j,
)

__all__ = [name for name in dir() if not name.startswith("_")]
