"""quadshift: orbits, bifurcations, Lyapunov spectra and basins for the
3D map (x, y, z) -> (y, z, x^2 + b).

The cube of the map acts on each coordinate independently through the
scalar kick u -> u^2 + b, which is what makes exact cycle lifting,
diagonal cocycle products and closed-form critical planes possible; the
modules here exploit that structure throughout.
"""
from .core import (ESCAPE_RADIUS, Params, Point3, apply_T, apply_T_n,
                   as_point, h1d, h1d_n, jacobian_T, orbit)
from .errors import (BranchLost, Diverged, LiftValidationFailed,
                     NoEventInBracket, NoRealFixedPoints, Overflow,
                     PaletteMissingLabel, PeriodDivisibleBy3, ToolkitError)
from .cycles import (Cycle1D, Cycle3D, Provenance, census,
                     classify_stability, cycle1d_label, find_cycles_1d,
                     fixed_point_cycles_1d, fixed_points_T, lift_homogeneous,
                     lift_homogeneous_3n, lift_mixed_pair, lift_mixed_triple,
                     stability_block_length)
from .bifurcations import (BifurcationEvent, Branch, DiagramDataset,
                           DiagramRow, bifurcation_diagram,
                           distinct_sample_count, event_residuals, find_flip,
                           find_fold, find_transcritical, multiplier_curve)
from .lyapunov import Exponent1D, LyapunovResult, lyapunov_1d, lyapunov_spectrum
from .critical import (AxisPlane, PlaneSideStats, Preimage,
                       attractor_bounds_report, critical_plane, plane_image,
                       preimages, region_of, zone_of)
from .basins import (DIVERGENT, UNDECIDED, Attractor, BasinGrid, BasinOptions,
                     SliceSpec, basin_slice, build_catalog, classify_point,
                     default_palette, default_seeds, render_grid)

__version__ = "0.1.0"
