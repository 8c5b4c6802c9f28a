"""BCS-to-Ginzburg-Landau pipeline at desk scale.

This package derives macroscopic Ginzburg-Landau (GL) coefficients from a
microscopic BCS pairing interaction and verifies, numerically and in one
dimension, the semiclassical statements that connect the two descriptions:

``specfun``
    Numerically stable special functions (Fermi weight f, occupation rho,
    the g-family, the gap-operator symbol) and confluent divided differences.
``gap_solver``
    Critical temperature and translation-invariant gap profile for a local
    attractive potential, solved in the even momentum sector.
``gl_coeffs``
    Quadratures mapping the gap profile to the GL coefficients B1, B2, B3
    and the trace-expansion constants E1, E2.
``gl_minimizer``
    Pseudospectral minimization of the periodic GL functional on the unit
    torus, with external electric-like potential W and magnetic-like
    potential A.
``bdg_verifier``
    Fiber-decomposed Bogoliubov-de Gennes operators, trace asymptotics,
    pair-operator decomposition, and free-energy upper-bound sweeps.
``properties``
    Registry of named cross-module invariant checks with witness values.
``cli``
    Command-line pipeline driver writing JSON/CSV artifacts.
"""


def __getattr__(name: str):
    # ``__version__`` is looked up on first use: reading the installed
    # metadata would cost every fresh process about 20 ms.
    if name != "__version__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib.metadata import PackageNotFoundError, version

    try:  # pragma: no cover - metadata present after installation
        value = version("bcsgl")
    except PackageNotFoundError:  # pragma: no cover - running from a checkout
        value = "0.0.0"
    globals()["__version__"] = value
    return value


__all__ = [
    "specfun",
    "gap_solver",
    "gl_coeffs",
    "gl_minimizer",
    "bdg_verifier",
    "properties",
    "cli",
]
