"""Numerical laboratory for spherical averaging and maximal operators
on Heisenberg and Metivier groups."""

from .groups import (DimensionMismatch, DomainError, GroupPoint,
                     MetivierStructure, SmallnessMargin, dilate,
                     group_inverse, group_multiply, identity_point,
                     normalized_heisenberg, quaternionic_htype,
                     radon_hurwitz, skew_inverse_norm, smallness_margin,
                     standard_heisenberg, theta_grid)
from .spheres import (ScalarField, SphereRule, spherical_average_batch,
                      sphere_rule)
from .phase import (ChartError, CurvatureReport, PhaseModel, certify_point,
                    curvature_block_form, curvature_matrix,
                    det_identity_rhs, fold_cone_block_form,
                    fold_cone_curvature, fold_point, fold_transversality,
                    geometry_csv, normal_vector, sample_chart_point,
                    sigma_value, xi, xi_y)
from .families import (ExampleInstance, ExponentFit, ParamRegion,
                       ball_example, experiment_csv, fit_exponent,
                       knapp_example, moment_example, moment_structure,
                       operator_ratio, predicted_exponent, run_ladder,
                       scaling_example, stein_growth_exponent,
                       stein_probe_curve)
from .regions import (RatPoint, Region, averaging_region, bourgain_vertex,
                      contains, convex_hull, export_region, is_member,
                      maximal_region, parse_region_csv)

__version__ = "0.1.0"
