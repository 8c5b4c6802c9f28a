"""GL scan through the library API, in one process.

Usage: python perfbench/scan.py SEED [SPANS_FILE]

For each potential, ``find_tc -> normalize -> compute_coefficients``;
then ``minimize`` (serial, n_max = 16, random starts from SEED) in
each field of ``CALLS``.  Prints one JSON object with every result and
the time of each call.  With SPANS_FILE, spans around each layer's calls
are written there when the scan ends.
"""

import json
import sys
import time

import tracer as tr

D = 1.0
N_MAX = 16

#: (label, family, g, w, mu).  The last is the point where ``minimize``
#: stops with ``converged=False`` under one BLAS thread (see NOTES.md).
POTENTIALS = (
    ("gaussian-g2-w1-mu1", "gaussian", 2.0, 1.0, 1.0),
    ("square-g2-w1-mu1", "square", 2.0, 1.0, 1.0),
    ("gaussian-g3-w0.7-mu0.5", "gaussian", 3.0, 0.7, 0.5),
)

#: (potential, field label, W amplitude of cos 2 pi x, A amplitude of
#: sin 2 pi x).  The last potential sees all four fields; the others one
#: each, which keeps a scan near 15 s.
_G3 = POTENTIALS[-1][0]
CALLS = (
    (POTENTIALS[0][0], "W0.5", 0.5, 0.0),
    (POTENTIALS[1][0], "W2", 2.0, 0.0),
    (_G3, "W0.5", 0.5, 0.0),
    (_G3, "W2", 2.0, 0.0),
    (_G3, "W0.5-A0.2", 0.5, 0.2),
    (_G3, "W2-A0.2", 2.0, 0.2),
)


def main() -> int:
    seed = int(sys.argv[1])
    spans_path = sys.argv[2] if len(sys.argv) > 2 else None
    from bcsgl import gap_solver, gl_coeffs, gl_minimizer

    tracer = None
    if spans_path:
        tracer = tr.Tracer()
        tr.install(tracer)
    TorusField = gl_minimizer.TorusField
    clock = time.perf_counter
    gaps, minima = [], []
    try:
        coefs = {}
        for label, family, g, w, mu in POTENTIALS:
            spec = getattr(gap_solver.PotentialSpec, family)(g, w, mu)
            start = clock()
            sol = gap_solver.normalize(gap_solver.find_tc(spec), D)
            coef = gl_coeffs.compute_coefficients(sol)
            coefs[label] = coef
            gaps.append({"potential": label, "seconds": clock() - start,
                         "T_c": sol.T_c, "B1": float(coef.B1[0, 0]),
                         "B2": coef.B2, "B3": coef.B3})
        for label, field, w_amp, a_amp in CALLS:
            a = TorusField.sine(a_amp) if a_amp else TorusField.zero(0)
            start = clock()
            state = gl_minimizer.minimize(
                a, TorusField.cosine(w_amp), coefs[label], n_max=N_MAX,
                seed=seed, workers=1)
            minima.append({
                "potential": label, "field": field,
                "seconds": clock() - start, "energy": state.energy,
                "converged": state.converged,
                "gradient_norm": state.gradient_norm,
            })
    finally:
        if tracer is not None:
            tracer.dump(spans_path, {"import_s": 0.0})
    print(json.dumps({"gaps": gaps, "minima": minima}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
