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

import math
import os

#: The BLAS and OpenMP thread variables the console entry sets.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def default_gap_grid(mu: float, width: float) -> tuple[float, int]:
    """``(cutoff, n_points)`` of the desk-scale default momentum grid of
    the gap solve for chemical potential ``mu`` and interaction range
    ``width``, resolving the Fermi surface and the well.

    :meth:`gap_solver.MomentumGrid.default_for` builds its grid from it,
    and so does the CLI's config validation, which loads no NumPy.
    """
    return max(6.0 * math.sqrt(1.0 + abs(mu)), 12.0 / width), 512


def _worker_count(args) -> int:
    """The ``--workers`` value in ``args`` as the CLI's parser reads it
    (no other option starts with ``--w``), its default when absent, and 1
    when malformed, which that parser then reports."""
    import argparse

    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    try:
        return parser.parse_known_args(args)[0].workers
    except argparse.ArgumentError:
        return 1


def main(argv=None) -> int:
    """The ``bcsgl`` console script: the thread policy, then the CLI.

    Each of the ``--workers`` threads calls BLAS, and a multithreaded
    BLAS under several workers oversubscribes the cores.  So with more
    than one worker this sets each of :data:`THREAD_VARIABLES` that is
    unset to 1, before the CLI runs and a stage that computes loads
    NumPy.  Importing the package changes no variable, and ``python -m
    bcsgl.cli`` runs the CLI with the environment as it is.
    """
    import sys

    args = sys.argv[1:] if argv is None else list(argv)
    if _worker_count(args) > 1:
        for name in THREAD_VARIABLES:
            os.environ.setdefault(name, "1")
    from .cli import main as cli_main

    return cli_main(args)


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
