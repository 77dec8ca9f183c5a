"""Sharp bounds on integrals of Wigner functions over phase-plane regions.

The integral of any Wigner function over a region S is bracketed by the
extreme eigenvalues of a Hermitian kernel attached to S.  This package
computes those eigenvalues exactly for ellipses, bands between
parallel lines, and disks, annuli and concentric unions of them, and in
the number basis for any other bounded region, with bounds() picking
the route from the region alone and refusing any other unbounded
region; it also evaluates Wigner functions, in closed form for number
and coherent states and from sampled wavefunctions otherwise, and
checks measured quasiprobability grids against the bounds.
"""
from .regions import (
    Annulus,
    Disk,
    Ellipse,
    Graph,
    PiecewiseLinear,
    Region,
    RegionUnion,
    area,
    bounding_box,
    load_region,
    region_from_dict,
    region_to_dict,
)
from .spectra import (
    SpectrumResult,
    bounds,
    crossing_radius,
    disk_curves,
    disk_spectrum,
    fock_extremes,
    rings_envelope,
)
from .wigner import (
    WavefunctionGrid,
    WignerGrid,
    normalize,
    number_state_wigner,
    quasiprobability,
    read_state_csv,
    read_wigner_csv,
    wigner_transform,
    write_wigner_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "Disk",
    "Ellipse",
    "Graph",
    "PiecewiseLinear",
    "Region",
    "RegionUnion",
    "SpectrumResult",
    "WavefunctionGrid",
    "WignerGrid",
    "area",
    "bounding_box",
    "bounds",
    "crossing_radius",
    "disk_curves",
    "disk_spectrum",
    "fock_extremes",
    "load_region",
    "normalize",
    "number_state_wigner",
    "quasiprobability",
    "read_state_csv",
    "read_wigner_csv",
    "region_from_dict",
    "region_to_dict",
    "rings_envelope",
    "wigner_transform",
    "write_wigner_csv",
]
