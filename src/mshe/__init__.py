"""Numerical toolkit for singular multiplicative stochastic heat equations.

Covers the parabolic Anderson model on R^2/R^3 (spatial white noise) and the
multiplicative stochastic heat equation on R (space-time white noise), both
simulated on large periodic boxes:

* ``structure``   -- symbolic regularity structure with exact homogeneity
                     arithmetic (rational + integer multiple of kappa),
* ``kernel``      -- heat kernel and its dyadic decomposition with vanishing
                     moments and exact parabolic scaling,
* ``wavelet``     -- compactly supported orthonormal wavelets, parabolic
                     rescalings on dyadic space-time lattices, analysis
                     transforms for grid fields,
* ``besov``       -- weighted Besov-type norms from wavelet coefficients,
                     weight families and their validators,
* ``noise``       -- white-noise sampling, mollifiers, mollification,
                     statistical regularity estimation,
* ``renorm``      -- renormalisation constants c_eps, c11_eps, c12_eps from
                     their explicit singular integrals (quadrature + QMC),
* ``reconstruct`` -- canonical models on low-order symbols, modelled
                     distributions, the dyadic reconstruction sequence and
                     sewing diagnostics,
* ``solver``      -- exponential-Euler solver for the renormalised equation,
                     the classical Ito reference, epsilon-convergence studies,
* ``cli``         -- the ``mshe`` command-line entry point.
"""

__all__ = [
    "structure",
    "kernel",
    "wavelet",
    "besov",
    "noise",
    "renorm",
    "reconstruct",
    "solver",
]

__version__ = "0.1.0"


def __getattr__(name):
    # lazy submodule access: keeps `import mshe` light for callers that only
    # need the symbolic layer
    if name in __all__:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module 'mshe' has no attribute {name!r}")
