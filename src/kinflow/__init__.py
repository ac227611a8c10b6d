"""Flow-matching sampling with per-trajectory kinetic energy diagnostics.

The package bundles density-stratified 2D toy datasets, a from-scratch MLP
velocity field trained with the bridge regression objective, the closed-form
velocity field over a finite training set, ODE samplers that accumulate
kinetic path energy, numerical verification of the energy-density and
terminal blow-up bounds, and the measurement layer (rank statistics,
memorization fraction, exact W2).
"""

__version__ = "0.1.0"

from .datasets import (DATASET_KINDS, KdeEstimator, LabeledDataset, generate,
                       load_csv, save_csv)
from .diagnostics import (KpeDensityReport, MemorizationReport,
                          UndefinedStatistic, cliffs_delta, cohens_d, exact_w2,
                          f_mem, knn_density, kpe_density_report,
                          mann_whitney_u, spearman)
from .efm import (EfmField, GammaSchedule, MixtureModel, dominance,
                  general_velocity, linear_schedule, mixture_log_density,
                  mixture_score, posterior_weights)
from .net import (MlpParams, NeuralVelocityField, TrainConfig, TrainResult,
                  TrainingDiverged, cfm_loss_grad, forward, init_params,
                  load_checkpoint, save_checkpoint, time_encoding, train)
from .sampler import (IntegrationDiverged, KtsSchedule, SolverConfig,
                      Trajectory, batch_summary, integrate, kts_eta,
                      load_traces, sample_batch, save_traces)
from .theory import (BoundCheckReport, BoundConstants, blowup_probe,
                     bound_constants, check_concentration,
                     check_energy_density_bounds,
                     check_local_gaussian_remainder, check_score_remainder,
                     integrated_energy_density, sample_dominant_points,
                     universal_lower_bound_check)
