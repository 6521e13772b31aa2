"""Homogenized plate energies from periodic 3D microstructures."""

from .algebra import (HookeTensor3, PlateForm, bounds, embed2to3, eval_energy,
                      evaluate_form, isotropic_hooke, laminate_x3_form,
                      load_phases, mandel2, mandel3, mandel_pair,
                      plane_stress_form, pointwise_relax, soft_hooke)
from .cell import (HomogenizedForm, check_bounds, evaluate, gamma_sweep,
                   homogenize, kl_limit_form, voigt_form)
from .convergence import (GrisoParts, extract_kl, griso_decompose, korn_ratio,
                          theorem1_harness)
from .fem3d import Operator, SolverError, assemble, solve_clamped
from .gclosure import (GeneratorSpec, Patch, PatchworkSpec, patchwork_construct,
                       sample_ptheta, windowed_recovery)
from .microstructure import (VoxelGrid, adjust_volume_fraction, load_grid,
                             make_checkerboard, make_laminate, refine, tile,
                             volume_fractions)
from .plate2d import (PlateProblem, PlateSolution, minimize_plate,
                      perturbation_stability)

__version__ = "0.1.0"
