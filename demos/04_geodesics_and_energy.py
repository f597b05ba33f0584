"""Geodesic, forced and controlled dynamics with the fixed-step integrator.

Trajectories live on the total space (base point, fiber coefficients).
``spray_field`` builds every field: the geodesic spray alone, with a force,
or with control inputs.  Unforced geodesics conserve the metric energy; drag
dissipates it; control inputs push along the input sections.  ``integrate``
takes one start state or a stack of them, integrated as one ensemble.
"""

import numpy as np

from algmech import (
    ControlSignal,
    ForceField,
    TotalPoint,
    energy,
    integrate,
    spray_field,
    suslov,
    planar_body,
)

body = planar_body()
S, Gm = body.structure, body.metric

field = spray_field(S, Gm)
traj = integrate(field, TotalPoint([0.0, 0.0, 0.0], [0.4, 0.3, -0.1]), 0.0, 5.0, 1e-3)
E = [energy(S, Gm, None, (traj.base[k], traj.fiber[k])) for k in range(0, len(traj), 200)]
print(f"geodesic over [0,5]: energy drift {max(E) - min(E):.2e}")
traj.to_csv("planar_geodesic.csv")
print("wrote planar_geodesic.csv with", len(traj), "samples")

# A stack of start states is integrated as one ensemble, one spray call per
# RK4 stage for every member still running; each member comes back as its
# own trajectory, bitwise the one it has when integrated alone.
starts = [TotalPoint(p, [0.4, 0.3, -0.1]) for p in body.sample(3, seed=2)]
ensemble = integrate(field, starts, 0.0, 5.0, 1e-2, chart=body.chart)
alone = integrate(field, starts[0], 0.0, 5.0, 1e-2, chart=body.chart)
print("ensemble of", len(ensemble), "geodesics:", [len(member) for member in ensemble],
      "samples; first member as integrated alone:",
      np.array_equal(ensemble[0].fiber, alone.fiber))

drag = ForceField.from_exprs(["-y1", "-y2", "-y3"], body.coords, body.params)
damped = integrate(spray_field(S, Gm, force=drag),
                   TotalPoint([0.0, 0.0, 0.0], [0.4, 0.3, -0.1]), 0.0, 5.0, 1e-2)
E0 = energy(S, Gm, None, (damped.base[0], damped.fiber[0]))
E1 = energy(S, Gm, None, (damped.base[-1], damped.fiber[-1]))
print(f"with quadratic drag: {E0:.4f} -> {E1:.6f}")

push = ControlSignal(["1", "0"], body.coords, body.params)
driven = integrate(spray_field(S, Gm, inputs=body.controls.sections, signal=push),
                   TotalPoint([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]), 0.0, 1.0, 1e-2)
print("unit thrust from rest reaches", np.round(driven.base[-1], 4))

# a base of a single point still works: rigid-body dynamics on the algebra
top = suslov((1.0, 2.0, 3.0), (0, 1, 2))
spin = integrate(spray_field(top.structure, top.metric),
                 TotalPoint(np.zeros(0), [0.3, 0.4, 0.2]), 0.0, 3.0, 1e-3)
print("body angular velocity after 3s:", np.round(spin.fiber[-1], 4))
