"""Sharp bounds on integrals of Wigner functions over phase-plane regions.

The integral of any Wigner function over a region S is bracketed by the
extreme eigenvalues of a Hermitian kernel attached to S.  This package
computes those eigenvalues exactly for disks, ellipses and annuli, and
by kernel discretization for general regions; it also evaluates Wigner
functions from sampled wavefunctions and checks measured
quasiprobability grids against the bounds.
"""
from .kernels import KernelMatrix, apply_kernel, assemble, default_window, kernel_eval
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
    reduce_ellipse,
    region_from_dict,
    region_to_dict,
)
from .specfun import laguerre_poly, oscillator_fn
from .spectra import (
    SpectrumResult,
    annulus_eigenvalue,
    annulus_envelope,
    crossing_radius,
    disk_eigenvalue,
    disk_envelope,
    disk_spectrum,
    extremal_eigenvalues,
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
    "KernelMatrix",
    "PiecewiseLinear",
    "Region",
    "RegionUnion",
    "SpectrumResult",
    "WavefunctionGrid",
    "WignerGrid",
    "annulus_eigenvalue",
    "annulus_envelope",
    "apply_canonical",
    "apply_kernel",
    "area",
    "assemble",
    "bounding_box",
    "coherent_state",
    "crossing_radius",
    "default_window",
    "disk_eigenvalue",
    "disk_envelope",
    "disk_spectrum",
    "extremal_eigenvalues",
    "indicator",
    "integral_identities",
    "kernel_eval",
    "laguerre_poly",
    "load_region",
    "mixed_wigner",
    "normalize",
    "number_state_wigner",
    "oscillator_fn",
    "oscillator_state",
    "pointwise_bound_report",
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
