"""Digital circles, discs, and spheres on the integer lattice.

Concentric digital circles do not tile the digital disc: gap pixels fall
between consecutive rings.  The same happens one dimension up, where swept
spheres and unions of completed spheres leave gap voxels.  This package
constructs all of these sets exactly (integer arithmetic throughout),
characterizes the gaps, counts them in closed per-row form, and exports
them for downstream tooling.
"""

from .lattice import (
    IntegerInterval,
    absentee_witness,
    canonicalize,
    ceil_sqrt,
    classify_pixel,
    isqrt,
    on_digital_circle,
    ring_radius,
    symmetric_octet,
)
from .circle import (
    absentee_interval,
    circle_pixels,
    disc_absentees,
    disc_pixels,
    gap_band_index,
    is_disc_absentee,
    parabolic_band_index,
    run_interval,
    union_circles,
)
from .sphere import (
    completed_sphere_count,
    completed_sphere_voxels,
    gap_plane,
    generatrix,
    hemisphere_absentees,
    hemisphere_voxels,
    is_sphere_absentee,
    parabolic_family_contains,
    sphere_absentees,
    sphere_surface_count,
    sphere_voxels,
    step_gap_voxels,
)
from .solid import (
    absentee_circle_count,
    absentee_circle_voxels,
    absentee_line_count,
    absentee_line_voxels,
    completed_solid_count,
    completed_solid_voxels,
    coverage_holes,
    enclosed_voxels,
    equatorial_family_contains,
    flood_solid_voxels,
    is_absentee_circle_voxel,
    is_absentee_line_voxel,
    polar_family_contains,
    solid_absentee_count,
    solid_absentee_voxels,
    species_voxel_counts,
    union_completed_spheres,
)
from .analysis import (
    CountRow,
    alpha,
    closed_form_disc_count,
    compare_closed_form,
    loglog_slope,
    solid_count_row,
    solid_table,
    sphere_count_row,
    sphere_table,
)

__version__ = "0.1.0"

__all__ = [
    "IntegerInterval", "absentee_witness", "canonicalize", "ceil_sqrt",
    "classify_pixel", "isqrt", "on_digital_circle", "ring_radius",
    "symmetric_octet",
    "absentee_interval", "circle_pixels", "disc_absentees", "disc_pixels",
    "gap_band_index", "is_disc_absentee", "parabolic_band_index",
    "run_interval", "union_circles",
    "completed_sphere_count", "completed_sphere_voxels", "gap_plane",
    "generatrix", "hemisphere_absentees", "hemisphere_voxels",
    "is_sphere_absentee", "parabolic_family_contains", "sphere_absentees",
    "sphere_surface_count", "sphere_voxels", "step_gap_voxels",
    "absentee_circle_count", "absentee_circle_voxels", "absentee_line_count",
    "absentee_line_voxels", "completed_solid_count", "completed_solid_voxels",
    "coverage_holes", "enclosed_voxels", "equatorial_family_contains",
    "flood_solid_voxels", "is_absentee_circle_voxel", "is_absentee_line_voxel",
    "polar_family_contains", "solid_absentee_count", "solid_absentee_voxels",
    "species_voxel_counts", "union_completed_spheres",
    "CountRow", "alpha", "closed_form_disc_count", "compare_closed_form",
    "loglog_slope", "solid_count_row", "solid_table", "sphere_count_row",
    "sphere_table",
    "__version__",
]
