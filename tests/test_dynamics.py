"""Sampled systems, integration accuracy, growth-bound soundness."""

import dataclasses
import math
import re

import numpy as np
import pytest

import symquant as sq
from symquant import dynamics
from symquant.dynamics import PENDULUM_CONSTANTS
from symquant.errors import DivergenceError
from conftest import rows_with_zeros


def test_pendulum_field_values():
    sys_ = sq.pendulum_system()
    assert np.allclose(sys_.field(np.array([0.0, 0.0]), np.array([0.0])),
                       [0.0, 0.0])
    # friction/mass ratio 6 shows up directly in the velocity derivative
    assert np.allclose(sys_.field(np.array([0.0, 1.0]), np.array([0.0])),
                       [1.0, -6.0])


def test_pendulum_constants():
    sys_ = sq.pendulum_system()
    assert PENDULUM_CONSTANTS == {"gravity": 9.8, "rod_length": 5.0,
                                  "mass": 0.5, "friction": 3.0}
    assert sys_.input_lo == (-2.5,) and sys_.input_hi == (2.5,)
    assert sys_.tau == 0.2 and sys_.lipschitz == 6.0
    assert sys_.integrator_steps == 10


def test_equilibrium_preserved_exactly():
    sys_ = sq.pendulum_system()
    assert (sq.successor(sys_, [0.0, 0.0], [0.0]) == np.zeros(2)).all()


def test_linear_closed_form():
    sys_ = sq.linear_system(tau=0.2)
    got = sq.successor(sys_, [1.0], [0.0])[0]
    assert abs(got - math.exp(-0.2)) < 1e-6
    # with a constant input the solution is u + (x0 - u) e^{-t}
    got = sq.successor(sys_, [0.3], [0.8])[0]
    assert abs(got - (0.8 + (0.3 - 0.8) * math.exp(-0.2))) < 1e-9


def test_default_resolution_matches_reference():
    sys_ = sq.pendulum_system()
    coarse = sq.successor(sys_, [0.48, 0.0], [0.0])
    fine = sq.successor(sys_, [0.48, 0.0], [0.0], steps=100)
    assert np.abs(coarse - fine).max() < 1e-6


def test_integrator_order():
    # halving the substep size must cut the error against a 10x reference
    # by at least the factor 8 expected of a 4th-order scheme
    sys_ = sq.pendulum_system()
    cases = [([0.48, 0.0], [0.0]), ([-0.7, 0.3], [1.5]), ([0.2, -0.5], [-2.0])]
    for x0, u in cases:
        reference = sq.successor(sys_, x0, u, steps=100)
        err_coarse = np.abs(sq.successor(sys_, x0, u, steps=5) - reference).max()
        err_fine = np.abs(sq.successor(sys_, x0, u, steps=10) - reference).max()
        assert err_coarse / err_fine >= 8.0


def test_integration_error_is_negligible_against_paper_radius():
    # pendulum_fine's lattice and inputs: every (cell center, grid input)
    # successor at the default 10 substeps lies within 1e-3 of the paper
    # radius of a 320-substep reference (measured: at most 1.4e-5 of it)
    sys_ = sq.pendulum_system(tau=0.2)
    lattice = sq.LogLattice.from_params(0.15, [0.05, 0.05], [-1, -1], [1, 1],
                                        "edge_anchored")
    centers = lattice.geometry()[0]
    grid = sq.input_grid(sys_, 11)
    x = np.repeat(centers, len(grid), axis=0)
    u = np.tile(grid, (len(centers), 1))
    error = np.abs(sq.successor_many(sys_, x, u)
                   - sq.successor_many(sys_, x, u, steps=320))
    radius = sq.growth_radius(centers, 0.15, 6.0, 0.2)
    assert (error <= 1e-3 * np.repeat(radius, len(grid), axis=0)).all()


def test_growth_radius_examples():
    got = sq.growth_radius([0.4, 0.0], 0.2, 6.0, 0.2)
    assert np.abs(got - [0.33201, 0.83003]).max() < 1e-5
    got = sq.growth_radius([0.4, 0.4], 0.2, 6.0, 0.2)
    assert np.abs(got - [0.33201, 0.33201]).max() < 1e-5
    got = sq.growth_radius([1.0, 1.0], 0.2, 6.0, 0.0)
    assert np.allclose(got, [0.25, 0.25])
    with pytest.raises(ValueError):
        sq.growth_radius([1.0], 1.5, 6.0, 0.2)
    for lipschitz, tau in ((0.0, 0.2), (6.0, -0.1)):
        with pytest.raises(ValueError, match="^(lipschitz|tau) must be "):
            sq.growth_radius([1.0], 0.2, lipschitz, tau)


def test_growth_bound_soundness_sampled():
    # the sampled-flow counterpart of the Lipschitz bound with the
    # configured constant; the full-scale audit lives in the acceptance suite
    sys_ = sq.pendulum_system()
    rng = np.random.default_rng(6)
    n = 2000
    x1 = rng.uniform(-1, 1, size=(n, 2))
    q1 = rng.uniform(-1, 1, size=(n, 2))
    u = rng.uniform(-2.5, 2.5, size=(n, 1))
    gap = np.abs(sq.successor_many(sys_, x1, u)
                 - sq.successor_many(sys_, q1, u)).max(axis=1)
    base = np.abs(x1 - q1).max(axis=1)
    bound = math.exp(6.0 * 0.2) * base * (1 + 1e-6)
    assert (gap <= bound).all()


def test_divergence_raises_with_substep():
    def field(x, u):
        return x * x

    sys_ = sq.SampledSystem(dim_x=1, dim_u=1, field=field, lipschitz=1.0,
                            tau=1.0, input_lo=(0.0,), input_hi=(0.0,),
                            integrator_steps=4, vectorized=True)
    with pytest.raises(DivergenceError) as info:
        sq.successor(sys_, [1e160], [0.0])
    assert info.value.substep == 0


def test_single_matches_batch_bitwise():
    sys_ = sq.pendulum_system()
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1, 1, size=(64, 2))
    us = rng.uniform(-2.5, 2.5, size=(64, 1))
    batch = sq.successor_many(sys_, xs, us)
    for k in range(64):
        single = sq.successor(sys_, xs[k], us[k])
        assert (single == batch[k]).all()


def test_non_vectorized_field_fallback():
    def field(x, u):
        return np.array([-x[0] + u[0]])

    sys_ = sq.SampledSystem(dim_x=1, dim_u=1, field=field, lipschitz=1.0,
                            tau=0.2, input_lo=(-1.0,), input_hi=(1.0,))
    got = sq.successor(sys_, [1.0], [0.0])[0]
    assert abs(got - math.exp(-0.2)) < 1e-6


def test_registry():
    assert sq.make_system("pendulum").name == "pendulum"
    sq.register_system("pendulum_slow",
                       lambda: sq.pendulum_system(tau=0.5))
    assert sq.make_system("pendulum_slow").tau == 0.5
    with pytest.raises(ValueError):
        sq.make_system("no_such_system")


def test_affine_system_refuses_bad_matrices():
    ok_A, ok_B = -np.eye(2), np.ones((2, 1))
    for A, B, message in (
            ([[1.0, 2.0]], ok_B, "A must be a finite square matrix"),
            ([1.0, 2.0], ok_B, "A must be a finite square matrix"),
            ([[math.nan, 0.0], [0.0, -1.0]], ok_B, "A must be a finite"),
            ([[-math.inf, 0.0], [0.0, -1.0]], ok_B, "A must be a finite"),
            (ok_A, np.ones((3, 1)), "B must be a finite matrix with 2 rows"),
            (ok_A, np.ones(2), "B must be a finite matrix with 2 rows"),
            (ok_A, [[1.0], [math.inf]], "B must be a finite matrix"),
            (ok_A, [[1.0], [math.nan]], "B must be a finite matrix")):
        with pytest.raises(ValueError, match=message):
            sq.affine_system(A, B, (-1.0,), (1.0,))
    with pytest.raises(ValueError, match="does not match dim_u"):
        sq.affine_system(ok_A, np.ones((2, 2)), (-1.0,), (1.0,))


def test_affine_system_default_growth_constant_is_the_row_sum_norm():
    rotation = [[-0.2, 1.0], [-1.0, -0.2]]
    assert sq.affine_system(rotation, [[0.0], [1.0]], (-1.0,),
                            (1.0,)).lipschitz == 1.2
    cube = sq.affine_system(-np.eye(3), np.ones((3, 1)), (-1.0,), (1.0,))
    assert cube.lipschitz == 1.0
    assert sq.affine_system([[-1.0, 2.0], [0.5, -3.0]], [[0.0], [1.0]],
                            (-1.0,), (1.0,)).lipschitz == 3.5  # not 5.0
    assert (cube.dim_x, cube.dim_u, cube.vectorized) == (3, 1, True)
    assert sq.affine_system(rotation, np.ones((2, 2)), (-1.0, -2.0),
                            (1.0, 2.0)).dim_u == 2


def test_make_system_linear_is_unchanged():
    sys_ = sq.make_system("linear")
    assert (sys_.name, sys_.dim_x, sys_.dim_u) == ("linear", 1, 1)
    assert (sys_.tau, sys_.lipschitz, sys_.integrator_steps) == (0.2, 1.0, 10)
    assert (sys_.input_lo, sys_.input_hi) == ((-1.0,), (1.0,))
    assert sys_.vectorized


@pytest.mark.parametrize("dim_x, tau", [(1, 0.2), (2, 0.5)])
def test_affine_system_matches_the_fields_it_replaced_bitwise(dim_x, tau):
    # the scalar dx = u - x of linear_system and the two-axis contracting
    # field dx_i = -x_i + u, as they were written by hand
    def hand_field(x, u):
        x, u = np.asarray(x, float), np.asarray(u, float)
        if dim_x == 1:
            return u - x
        return np.stack([-x[..., 0] + u[..., 0], -x[..., 1] + u[..., 0]],
                        axis=-1)

    hand = sq.SampledSystem(dim_x=dim_x, dim_u=1, field=hand_field,
                            lipschitz=1.0, tau=tau, input_lo=(-1.0,),
                            input_hi=(1.0,), vectorized=True)
    factory = sq.affine_system(-np.eye(dim_x), np.ones((dim_x, 1)), (-1.0,),
                               (1.0,), tau=tau)
    x, u = rows_with_zeros(np.random.default_rng(dim_x), 20_000, dim_x, 1)
    assert (x == 0.0).all(axis=1).any() and (u == 0.0).any()
    expected = sq.successor_many(hand, x, u).tobytes()
    assert sq.successor_many(factory, x, u).tobytes() == expected
    if dim_x == 1:
        assert sq.successor_many(sq.linear_system(), x, u).tobytes() == \
            expected


def test_system_validation():
    with pytest.raises(ValueError):
        sq.pendulum_system(tau=-1.0)
    with pytest.raises(ValueError):
        sq.SampledSystem(dim_x=1, dim_u=1, field=lambda x, u: -x,
                         lipschitz=1.0, tau=0.1, input_lo=(1.0,),
                         input_hi=(-1.0,))
    base = dict(dim_x=1, dim_u=1, field=lambda x, u: -x, lipschitz=1.0,
                tau=0.1, input_lo=(-1.0,), input_hi=(1.0,))
    for change, message in (({"dim_x": 0}, "dim_x must be an int of at least"),
                            ({"lipschitz": 0.0}, "lipschitz must be positive"),
                            ({"integrator_steps": 0}, "at least 1"),
                            ({"input_hi": (1.0, 2.0)}, "does not match dim_u")):
        with pytest.raises(ValueError, match=message):
            sq.SampledSystem(**{**base, **change})
    sys_ = sq.SampledSystem(**base)
    with pytest.raises(ValueError, match=r"states of shape \(N, 1\)"):
        sq.successor_many(sys_, np.zeros((2, 2)), np.zeros((2, 1)))
    with pytest.raises(ValueError, match=r"inputs of shape \(N, 1\)"):
        sq.successor_many(sys_, np.zeros((2, 1)), np.zeros((3, 1)))


def test_substeps_are_a_positive_int():
    # a steps override and integrator_steps alike: no silent x0, no
    # ZeroDivisionError, no truncated 2.7, no TypeError from range
    sys_ = sq.linear_system()
    x, u = np.ones((2, 1)), np.zeros((2, 1))
    for steps in (-3, 0, 2.7, 2.0, True, np.int64(4), "4"):
        for call in (lambda: sq.successor_many(sys_, x, u, steps=steps),
                     lambda: sq.successor(sys_, [1.0], [0.0], steps=steps)):
            with pytest.raises(ValueError, match=re.escape(
                    f"steps must be an int of at least 1, got {steps!r}")):
                call()
        with pytest.raises(ValueError, match=re.escape(
                f"integrator_steps must be an int of at least 1, got "
                f"{steps!r}")):
            dataclasses.replace(sys_, integrator_steps=steps)
    assert sq.successor(sys_, [1.0], [0.0], steps=1)[0] == \
        sq.successor_many(sys_, x, u, steps=1)[0, 0]


def test_trajectory_validation_and_csv(tmp_path):
    times = np.array([0.0, 0.2, 0.4])
    states = np.array([[0.0, 0.0], [0.1, 0.2], [0.2, 0.1]])
    inputs = np.array([[1.0], [-1.0]])
    trajectory = sq.Trajectory(times=times, states=states, inputs=inputs)
    assert trajectory.steps == 2
    path = tmp_path / "t.csv"
    trajectory.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,u1"
    assert len(lines) == 4
    assert lines[-1].endswith(",")  # no input on the final row

    with pytest.raises(ValueError):
        sq.Trajectory(times=times, states=states, inputs=np.array([[1.0]]))
    with pytest.raises(ValueError):
        sq.Trajectory(times=times[::-1], states=states, inputs=inputs)
    with pytest.raises(ValueError, match="lengths do not match"):
        sq.Trajectory(times=times[:2], states=states, inputs=inputs)
    with pytest.raises(ValueError, match="non-finite states"):
        sq.Trajectory(times=times, states=states * [[np.nan], [1], [1]],
                      inputs=inputs)


def _rk4_step_reference(f, x, u, h):
    """The RK4 substep written plainly, one fresh array per operation; the
    kernel must match it bit for bit."""
    k1 = f(x, u)
    k2 = f(x + (h / 2.0) * k1, u)
    k3 = f(x + (h / 2.0) * k2, u)
    k4 = f(x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _system(field, dim_x, vectorized=True, tau=0.2, steps=10):
    return sq.SampledSystem(dim_x=dim_x, dim_u=1, field=field, lipschitz=1.0,
                            tau=tau, input_lo=(-1.0,), input_hi=(1.0,),
                            integrator_steps=steps, vectorized=vectorized)


def _field_3d(x, u):
    return np.stack([x[..., 1] * x[..., 2] - x[..., 0],
                     np.sin(x[..., 0]) + u[..., 0],
                     -x[..., 2] + x[..., 0] * u[..., 0]], axis=-1)


def _field_rowwise(x, u):
    return np.array([x[1], -np.sin(x[0]) - 0.5 * x[1] + u[0]])


@pytest.mark.parametrize("case, rows", [
    ("pendulum", 1), ("pendulum", 64), ("pendulum", 5000), ("linear", 300),
    ("field_3d", 500), ("rowwise", 50), ("identity", 200), ("view", 200),
    ("square", 200)])
def test_kernel_matches_reference_bitwise(monkeypatch, case, rows):
    rng = np.random.default_rng(rows)
    scale = 3.0
    if case == "pendulum":
        sys_ = sq.pendulum_system()
    elif case == "linear":
        sys_ = sq.linear_system()
    elif case == "field_3d":
        sys_ = _system(_field_3d, 3)
    elif case == "rowwise":
        sys_ = _system(_field_rowwise, 2, vectorized=False)
    elif case == "identity":  # the field returns its own argument
        sys_ = _system(lambda x, u: x, 2, tau=5.0)
        # the odd rows start near 1e306, and most of them overflow
        scale = np.where(np.arange(rows)[:, None] % 2, 1e306, 3.0)
    elif case == "view":  # the field returns a view of its argument
        sys_ = _system(lambda x, u: x[..., ::-1], 2)
    else:
        sys_ = _system(lambda x, u: x * x, 1, tau=1.0, steps=4)
    x = rng.uniform(-scale, scale, size=(rows, sys_.dim_x))
    u = rng.uniform(-1.0, 1.0, size=(rows, 1))
    got = sq.successor_many(sys_, x, u)
    calls = []

    def reference(*args):
        calls.append(args)
        return _rk4_step_reference(*args)

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_rk4_step", reference)
        want = sq.successor_many(sys_, x, u)
    # the reference ran every substep, so it is not the kernel itself
    assert len(calls) == sys_.integrator_steps
    finite = np.isfinite(want).all(axis=1)
    assert np.array_equal(np.isfinite(got).all(axis=1), finite)
    assert got[finite].tobytes() == want[finite].tobytes()
    if case in ("identity", "square"):
        assert 0 < finite.sum() < rows  # both finite and diverging rows


def test_kernel_never_writes_what_the_field_sees():
    seen = []

    def field(x, u):
        seen.append((x, x.copy()))
        return x  # returning the argument invites in-place reuse

    sq.successor_many(_system(field, 2), np.ones((3, 2)), np.zeros((3, 1)))
    assert len(seen) == 40
    assert all(np.array_equal(arr, copy) for arr, copy in seen)


def test_divergence_substep_is_the_first_non_finite_one():
    sys_ = _system(lambda x, u: x * x, 1, tau=1.0, steps=10)
    x0, u = np.array([[3.0]]), np.array([[0.0]])
    x, expected = x0, None
    with np.errstate(all="ignore"):
        for k in range(sys_.integrator_steps):
            x = _rk4_step_reference(sys_.field, x, u, sys_.tau / 10)
            if not np.isfinite(x).all():
                expected = k
                break
    assert expected is not None and expected >= 2
    with pytest.raises(DivergenceError) as info:
        sq.successor(sys_, x0[0], u[0])
    assert info.value.substep == expected


def test_pendulum_field_broadcasts_one_state_over_inputs():
    sys_ = sq.pendulum_system()
    u = np.linspace(-2.5, 2.5, 5)[:, None]
    for x in (np.array([0.3, -0.7]), np.array([[0.3, -0.7]])):
        got = sys_.field(x, u)
        assert got.shape == (5, 2)
        rows = np.array([sys_.field(x[0] if x.ndim == 2 else x, u[k])
                         for k in range(5)])
        assert got.tobytes() == rows.tobytes()
