"""dielshape: spectral boundary-integral solver for dielectric Maxwell
scattering on star-shaped surfaces, with shape-derivative engines.

Subpackage layout
-----------------
grid       reference sphere quadrature and harmonic transforms
geometry   surfaces, materials, deformation fields
surfcalc   surface differential operators and their shape derivatives
kernels    singular quadrature of the scalar layer kernels and derivatives
bio        boundary integral operators / potentials in Helmholtz coordinates
solver     the single-source transmission integral equation
shapederiv three routes to the first shape derivative of the far field
oracle     Mie series ground truth for the dielectric sphere
checks     the accuracy checks: validation suites and the relative error
cli        configuration-driven command line entry points
"""

import importlib

# Re-exports resolve on first access (PEP 562), so importing a light module
# such as ``dielshape.cli`` does not load numpy before the command line has
# applied DIELSHAPE_NUM_THREADS.
_EXPORTS = {
    "ReferenceGrid": "grid",
    "Surface": "geometry",
    "DeformationField": "geometry",
    "Material": "geometry",
    "build_surface": "geometry",
    "sphere": "geometry",
    "deform": "geometry",
    "PlaneWave": "solver",
    "solve": "solver",
    "far_field": "solver",
    "d_solution_routeA": "shapederiv",
    "d_solution_routeB": "shapederiv",
    "d_solution_routeC": "shapederiv",
    "mie_far_field": "oracle",
    "mie_radius_derivative": "oracle",
}
_SUBMODULES = {
    "bio", "checks", "cli", "errors", "geometry", "grid", "kernels", "oracle", "sh",
    "shapederiv", "solver", "surfcalc",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
