"""States on exactly solvable spectra, with their verification machinery.

Three state families over one truncated-ladder core: eigenstates of the
lowering operator, displacement-operator states with their unit-disk
picture, and minimum-uncertainty states saturating the
Robertson-Schrodinger relation.  A position-space layer realizes the
trigonometric well the abstract ladder describes, and every closed form
ships with an independent numerical check.
"""
from .errors import (ConvergenceError, DomainError, LambdaRejected,
                     SolvStatesError, TruncationError)
from .spectrum import SpectrumModel
from .fockspace import (FockVector, LadderRep, UncertaintyReport, build_ladder,
                        eigenvalue_residual, f_operator, gis_recurrence_oracle,
                        uncertainty)
from .gazeau_klauder import (GKState, RadialMeasure, action_identity,
                             bargmann_eval, evolve, gk_normalization,
                             gk_normalization_closed, gk_state,
                             identity_moment_check, pt_measure)
from .perelomov import (DiskPoint, cn_closed, cn_ode, cn_series,
                        disk_coefficients, disk_identity_check, disk_kernel,
                        disk_kernel_closed, kernel_reproducing_residual,
                        perelomov_state, plane_to_disk)
from .intelligent import (GISParameters, delta_nh, gis_bargmann_function,
                          gis_coefficients, gis_disk_expansion,
                          gis_disk_function, gis_state, laplace_bridge,
                          validate_lambda, verify_rs)
from .position import (GridFunction, PTParameters, eigenfunction, energy,
                       factorization_residual, factorization_residuals,
                       gram_matrix, interior_grid, overlap_matrix,
                       partner_eigenfunction, partner_energy, partner_potential,
                       potential, rayleigh_quotient, rayleigh_quotients,
                       schrodinger_residual, schrodinger_residuals,
                       superpotential)
from .verify import CaseResult, VerificationReport, run_suite
from .tolerances import DEFAULTS as TOLERANCES

__version__ = "0.1.0"
