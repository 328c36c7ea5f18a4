"""Systems the benchmark registers with symquant before running the CLI."""

import numpy as np

import symquant


def cube3d_system(tau: float = 0.5,
                  integrator_steps: int = 10) -> symquant.SampledSystem:
    """The contracting field of the test suite, ``dx_i = -x_i + u``, lifted
    from two axes to three; one scalar input drives every axis."""

    def field(x, u):
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        return np.stack([-x[..., 0] + u[..., 0], -x[..., 1] + u[..., 0],
                         -x[..., 2] + u[..., 0]], axis=-1)

    return symquant.SampledSystem(dim_x=3, dim_u=1, field=field,
                                  lipschitz=1.0, tau=tau, input_lo=(-1.0,),
                                  input_hi=(1.0,),
                                  integrator_steps=integrator_steps,
                                  vectorized=True, name="cube3d")


def register():
    symquant.register_system("cube3d", cube3d_system)
