import numpy as np
import pytest

import phasekit as pk


@pytest.fixture(scope="session")
def radial_cycle():
    model = pk.make_model("radial")
    return model, pk.find_limit_cycle(model, (1.7, 0.1))


@pytest.fixture(scope="session")
def spiral_cycle():
    model = pk.make_model("spiral")
    return model, pk.find_limit_cycle(model, (0.5, 0.5))


@pytest.fixture(scope="session")
def sl_cycle():
    model = pk.make_model("stuart_landau", omega=2.0, c2=1.0)
    return model, pk.find_limit_cycle(model, (1.5, 0.1))


@pytest.fixture(scope="session")
def radial_sens(radial_cycle):
    model, cycle = radial_cycle
    return pk.phase_sensitivity(model, cycle)


@pytest.fixture(scope="session")
def spiral_sens(spiral_cycle):
    model, cycle = spiral_cycle
    return pk.phase_sensitivity(model, cycle)


def circ_err(a, b):
    """Max circular distance between two phase arrays."""
    return float(np.max(np.abs(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b)))))))


def scalar_only_radial():
    """The radial model as a scalar-only custom field with no Jacobian."""
    def f(x):
        r2 = x[0] ** 2 + x[1] ** 2
        return np.array([x[0] - x[1] - x[0] * r2, x[0] + x[1] - x[1] * r2])

    return pk.make_model("custom", f=f, dim=2, basin_radius=1e-3)


def with_decaying_axis(model, rate):
    """3-D custom model: the planar model times dz/dt = -rate * z.

    Its cycle is the planar one at z = 0, and its monodromy multipliers are
    the planar ones plus exp(-rate * T).
    """
    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        out[..., :2] = model.f(x[..., :2])
        out[..., 2] = -rate * x[..., 2]
        return out

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        j = np.zeros(x.shape[:-1] + (3, 3))
        j[..., :2, :2] = model.jacobian(x[..., :2])
        j[..., 2, 2] = -rate
        return j

    return pk.make_model("custom", f=f, dim=3, jacobian=jacobian,
                         vectorized=True)
