"""Numerical laboratory for spherical averaging and maximal operators
on Heisenberg and Metivier groups."""

from .groups import (DimensionMismatch, DomainError, MetivierStructure,
                     dilate, group_inverse, group_multiply,
                     normalized_heisenberg, quaternionic_htype,
                     radon_hurwitz, skew_inverse_norm, smallness_margin,
                     standard_heisenberg, theta_grid)
from .spheres import ScalarField, spherical_average_batch, sphere_rule
from .phase import (ChartError, CurvatureReport, certify_point,
                    curvature_matrix, sample_chart_point, sigma_value, xi_y)
from .families import (ExampleInstance, ExponentFit, ParamRegion,
                       ball_example, fit_exponent, knapp_example,
                       moment_example, moment_structure, operator_ratio,
                       predicted_exponent, run_ladder, scaling_example,
                       stein_growth_exponent, stein_probe_curve)
from .regions import (RatPoint, Region, averaging_region, bourgain_vertex,
                      contains, convex_hull, export_region, maximal_region)

__version__ = "0.1.0"
