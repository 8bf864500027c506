import numpy as np

from plastiproj.stepper import Trajectory


def stack_states(spec, states):
    """The trajectory of the states n = 0 .. spec.N, stacked into columns."""
    v = None if states[0].v is None else np.stack([s.v for s in states])
    return Trajectory(spec, np.stack([s.sigma for s in states]),
                      np.stack([s.sigma_star for s in states]), v,
                      np.array([s.fp_iters for s in states], dtype=int),
                      np.array([s.fp_converged for s in states], dtype=bool))
