"""Brackets, the almost differential, and nonholonomy ranks.

The planar rigid body with a steerable thruster carries its adapted frame:
two control directions and their metric complement.  The frame brackets
close with coordinate-dependent coefficients, which is exactly what the
structure functions record.
"""

import numpy as np

from algmech import (
    OneForm,
    Potential,
    anchor_apply,
    bracket,
    d_function,
    d_oneform,
    jacobiator,
    lie_closure_rank,
    parse,
    planar_body,
)

body = planar_body()
S = body.structure
e1, e2, e3 = body.basis_sections()
p = np.array([0.4, -0.2, 0.8])

print("bracket of the two control directions:", bracket(S, e1, e2, p))
print("bracket of e2 with the complement:", bracket(S, e2, e3, p))
print("anchored first control at heading 0:", anchor_apply(S, e1, [0.0, 0.0, 0.0]))

# the almost differential of a function pairs with sections through the anchor
f = parse("x^2 + y")
print("d f in the frame:", d_function(S, f, p))

# for a tangent-bundle structure the differential squares to zero; a field
# evaluated at many points is built once, so its table compiles once
f_field = Potential.from_expr(f, S.coords, S.params)
kappa = OneForm(lambda x: d_function(S, f_field, x), 3)
print("d(df)(e1,e2) ~ 0:", d_oneform(S, kappa, e1, e2, p, step=1e-4))
print("jacobiator ~ 0:", jacobiator(S, e1, e2, e3, p, step=1e-4))

# the two control directions alone span everything after one bracket level
controls = list(body.controls.sections)
print("rank of anchored controls, depth 1:", lie_closure_rank(S, p, 1, sections=controls))
print("rank with one bracket level, depth 2:", lie_closure_rank(S, p, 2, sections=controls))
