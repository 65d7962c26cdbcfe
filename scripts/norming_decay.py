"""Compare norming-constant defect decay for a smooth and a rough potential.

For the smooth potential (cos x) the defect a_n - pi/2 decays cleanly at
the squared rate.  For the step potential the defect oscillates with the
parity of n (the jump sits at pi/2, so the correction integral alternates
between two amplitudes); subtracting the model value built from that
correction leaves a scaled defect n^2 |a_n - model| that stays bounded.

The b side is printed too.  model_b reuses ae_n, which is right only for
q symmetric about pi/2.  b_n's own correction is the reflected integral
-(1/2) int t q(t) sin(2 nu (pi - t)) dt.  With it, n^2 (b_n - model)
matches the a side; with ae_n it is larger on all three potentials and
grows with n on the asymmetric step(2, 1).
Prints the tables and the fitted log-log slopes.
"""

import argparse
import math

import numpy as np

from slspectra import BoundaryParams, Potential, find_spectrum, model_b, norming_records
from slspectra.fitting import fit_loglog_slope
from slspectra.odesolve import DEFAULT_GRID_SIZE
from slspectra.potential import fourier_moments

PI = math.pi


def reflected_ae(q, nu):
    """-(1/2) int_0^pi t q(t) sin(2 nu (pi - t)) dt for an array of nu."""
    c, s = fourier_moments(lambda t: t * q(t), 2.0 * nu, q.breakpoints, cubic=q.piecewise_linear)
    return -0.5 * (np.sin(2.0 * PI * nu) * c - np.cos(2.0 * PI * nu) * s)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=60)
    parser.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    args = parser.parse_args()

    bc = BoundaryParams(PI / 2, PI / 2)
    ns = np.arange(10, args.n_max + 1)

    for label, q in (("smooth q = cos x", Potential.smooth_test([1.0])),
                     ("rough q = step(2, pi/2)", Potential.step(2.0, PI / 2)),
                     ("asymmetric q = step(2, 1)", Potential.step(2.0, 1.0))):
        spec = find_spectrum(q, bc, args.n_max, grid_size=args.grid_size)
        records = norming_records(q, bc, spec, grid_size=args.grid_size)
        deltas = [spec.pair(int(n)).delta for n in ns]
        ae_b = reflected_ae(q, ns + np.array([d.value for d in deltas]))
        print(f"\n{label}")
        print(f"{'n':>4} {'a_n':>18} {'a_n - pi/2':>14} {'n^2 (a_n - model)':>18} "
              f"{'n^2 (b_n - model_b)':>20} {'reflected':>10}")
        raw, modeled, modeled_b, reflected = [], [], [], []
        for n, d, ae in zip(ns, deltas, ae_b):
            rec = records[n]
            raw.append(abs(rec.a_n - PI / 2))
            modeled.append(n * n * abs(rec.a_n - rec.model_a))
            modeled_b.append(n * n * abs(rec.b_n - rec.model_b))
            reflected.append(n * n * abs(rec.b_n - model_b(bc, d, ae, int(n))))
            if n % 5 == 0:
                print(f"{n:>4} {rec.a_n:>18.12f} {rec.a_n - PI / 2:>14.3e} "
                      f"{modeled[-1]:>18.6f} {modeled_b[-1]:>20.6f} {reflected[-1]:>10.6f}")
        print(f"raw-defect slope:    {fit_loglog_slope(ns, raw, floor=1e-13):8.3f}")
        print(f"scaled model defect: max {max(modeled):.4f} over n in "
              f"[{ns[0]}, {ns[-1]}] (bounded)")
        print(f"b side, n^2 |b_n - model_b|: max {max(modeled_b):.4f}; with the reflected "
              f"integral: max {max(reflected):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
