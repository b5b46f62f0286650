"""Rigorous enclosures: intervals, gradients, Hessians.

Every quantity the certifier trusts is an enclosure: evaluate once over a
box and you have bounds on the function, its gradient, and its Hessian
everywhere inside.  This script compares those enclosures with dense
random sampling to make the containment visible.
"""

import numpy as np

from lyapcert import HyperRect, Interval, eval_batch, eval_hess_interval, parse_expr

rng = np.random.default_rng(0)

# basic arithmetic is outward rounded: results always contain the truth
a, b = Interval(1, 2), Interval(3, 5)
print("a + b          =", a + b)
print("a * b          =", a * b)
print("sqrt([4, 9])   =", Interval(4, 9).sqrt())
print("[-1, 2]^2      =", Interval(-1, 2).pow_int(2), " (tight even-power rule)")

# dependency matters: x - x^2 written naively vs factored
x = Interval(0.85, 0.95)
print("\nnaive  x - x^2 :", x - x.pow_int(2))
print("factored x(1-x):", x * (1.0 - x), " (same function, tighter range)")

# a composed two-variable map over a box, checked against 100k samples; a
# box is a batch of one (an IntervalArray of shape (n, 1)), so the results
# have one entry: value (1,), gradient (n, 1), Hessian (1, n, n)
f = parse_expr("sqrt(x1*(1 - x1)) + x2^2/(x1 + 2)", 2)
box = HyperRect.from_bounds([0.2, -0.5], [0.8, 0.5]).to_interval_vector()
val, grad, hess = eval_hess_interval(f, box)
pts = rng.uniform([0.2, -0.5], [0.8, 0.5], size=(100_000, 2))
vals = eval_batch(f, pts)
print(f"\nenclosure of f over the box: [{val.lo[0]:.6f}, {val.hi[0]:.6f}]")
print(f"sampled range:               [{vals.min():.6f}, {vals.max():.6f}]")
assert val.lo[0] <= vals.min() and vals.max() <= val.hi[0]

print("\ngradient enclosure:", [f"[{g.lo[0]:.4f}, {g.hi[0]:.4f}]" for g in grad])
print(f"Hessian (0,0)    : [{hess.lo[0, 0, 0]:.4f}, {hess.hi[0, 0, 0]:.4f}]")
