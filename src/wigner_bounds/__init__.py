"""Sharp bounds on integrals of Wigner functions over phase-plane regions.

The integral of any Wigner function over a region S is bracketed by the
extreme eigenvalues of a Hermitian kernel attached to S.  This package
computes those eigenvalues exactly for disks, ellipses, annuli and
bands between parallel lines and in the number basis for any other
bounded region, with bounds() picking the route from the region alone
and refusing any other unbounded region; it also evaluates Wigner
functions from sampled wavefunctions and checks measured
quasiprobability grids against the bounds.
"""
from .regions import (
    Annulus,
    CanonicalMap,
    Disk,
    Ellipse,
    Graph,
    PiecewiseLinear,
    Region,
    RegionUnion,
    apply_canonical,
    area,
    bounding_box,
    indicator,
    load_region,
    quadrature,
    reduce_ellipse,
    region_from_dict,
    region_to_dict,
)
from .specfun import laguerre_poly, oscillator_fn
from .spectra import (
    SpectrumResult,
    annulus_eigenvalue,
    annulus_envelope,
    bounds,
    crossing_radius,
    disk_curves,
    disk_eigenvalue,
    disk_envelope,
    disk_spectrum,
    fock_extremes,
)
from .states import (
    Ensemble,
    WavefunctionGrid,
    coherent_state,
    normalize,
    oscillator_state,
    read_state_csv,
    write_state_csv,
)
from .wigner import (
    BoundReport,
    Identities,
    WignerGrid,
    integral_identities,
    mixed_wigner,
    number_state_wigner,
    pointwise_bound_report,
    quasiprobability,
    read_wigner_csv,
    wigner_transform,
    write_wigner_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "BoundReport",
    "CanonicalMap",
    "Disk",
    "Ellipse",
    "Ensemble",
    "Graph",
    "Identities",
    "PiecewiseLinear",
    "Region",
    "RegionUnion",
    "SpectrumResult",
    "WavefunctionGrid",
    "WignerGrid",
    "annulus_eigenvalue",
    "annulus_envelope",
    "apply_canonical",
    "area",
    "bounding_box",
    "bounds",
    "coherent_state",
    "crossing_radius",
    "disk_curves",
    "disk_eigenvalue",
    "disk_envelope",
    "disk_spectrum",
    "fock_extremes",
    "indicator",
    "integral_identities",
    "laguerre_poly",
    "load_region",
    "mixed_wigner",
    "normalize",
    "number_state_wigner",
    "oscillator_fn",
    "oscillator_state",
    "pointwise_bound_report",
    "quadrature",
    "quasiprobability",
    "read_state_csv",
    "write_state_csv",
    "read_wigner_csv",
    "reduce_ellipse",
    "region_from_dict",
    "region_to_dict",
    "wigner_transform",
    "write_wigner_csv",
]
