"""Exercise the numerical inversion kernels on transforms with known
originals, including a fractional-power pair of the kind produced by the
interference field."""
import math

import numpy as np

from nomacell import invert_1d, invert_2d

print("1D Euler-summation inversion")
for label, F, tau, want in (
        ("unit step", lambda s: 1 / s, 1.0, 1.0),
        ("1 - e^-t", lambda s: 1 / (s * (s + 1)), 2.0, 1 - math.exp(-2)),
        ("erfc(1/(2 sqrt t))", lambda s: np.exp(-np.sqrt(s)) / s, 1.0,
         math.erfc(0.5))):
    got = invert_1d(F, tau)
    print(f"  {label:22s} got {got:.10f}  err {abs(got - want):.1e}")

print("\n2D trapezoidal inversion with epsilon acceleration")
for label, F, t1, t2, want in (
        ("product of steps", lambda s, t: 1 / (s * t), 1.0, 1.0, 1.0),
        ("separable exp", lambda s, t: 1 / ((s + 1) * (t + 2)), 1.0, 0.5,
         math.exp(-2)),
        ("coupled rational", lambda s, t: 1 / (s * t * (1 + s + t)), 1.0, 2.0,
         1 - math.exp(-1))):
    got = invert_2d(F, t1, t2)
    print(f"  {label:22s} got {got:.10f}  err {abs(got - want):.1e}")
