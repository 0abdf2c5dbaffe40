"""Model-based image reconstruction with momentum-extrapolated refining networks."""

from .linops import (DiagonalMajorizer, FeasibleSet, ImageVector, MajorizationReport,
                     MbirObjective, QuadraticDataFit, ShapeError, SparseMatrixOperator,
                     datafit_gradient, diag_majorizer, mbir_gradient, select_gamma,
                     spectral_spread, verify_majorization)
from .prox import prox_l1_metric, soft_threshold
from .refiners import (DcnnRefiner, IdentityRefiner, NonexpansiveReport, ScnnRefiner,
                       TiedCaolRefiner, delta_measure, lipschitz_estimate,
                       load_refiner, make_tf_filterbank, paired_epsilon, save_refiner,
                       scnn_nonexpansive_sufficient, tf_defect)
from .solver import (IterateRecord, IterateTrace, MomentumNetConfig, MomentumState,
                     NumericFailure, apg_solve, backprojection_init,
                     check_extrapolation_condition, extrapolation_matrix,
                     fixed_point_residual, mbir_step, momentum_update, run_bcd_net,
                     run_caol_bpegm, run_momentum_net)
from .training import (PatchBoundReport, RefinerArch, TrainConfig, TrainingAborted,
                       TrainingSample, greedy_train, patch_loss_bound_check, train_refiner)
from .imaging import (CtGeometry, binomial_kernel, build_blur, build_radon, psnr,
                      random_ellipse_phantom, rmse, shepp_logan, simulate_ct)
from .diagnostics import DiagnosticsResult, run_diagnostics

__version__ = "0.1.0"
