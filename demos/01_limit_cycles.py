"""Locate limit cycles of the built-in oscillators and report their basics.

Every model is reduced to the same normal form: a closed orbit found by a
Poincare shooting method, reparameterized so the phase advances uniformly in
time, anchored at the section crossing.  The circular models all share the
transverse contraction exponent -2; the relaxation oscillator shows how the
same machinery handles a strongly non-circular orbit.
"""

import numpy as np

import phasekit as pk


def describe(name, model, guess):
    cycle = pk.find_limit_cycle(model, guess)
    lam = pk.floquet_exponent(model, cycle)
    amp = np.max(np.abs(cycle.points[:, 0]))
    print(f"{name:<14s} period {cycle.period: .6f}   "
          f"omega0 {cycle.omega0: .6f}   contraction {lam: .4f}   "
          f"max |x| {amp: .4f}")
    return cycle


def main():
    print("=== limit cycles of the built-in models ===")
    describe("radial", pk.make_model("radial"), (1.7, 0.1))
    describe("spiral", pk.make_model("spiral"), (0.5, 0.5))
    describe("stuart_landau",
             pk.make_model("stuart_landau", omega=2.0, c2=1.0), (1.5, 0.1))
    relax = describe("relaxation", pk.make_model("relaxation", mu=1.0),
                     (2.0, 0.0))

    print()
    print("relaxation oscillator cross-checks:")
    print(f"  period vs classical reference 6.6632868593231: "
          f"{abs(relax.period - 6.6632868593231):.2e}")
    model = pk.make_model("relaxation", mu=1.0)
    # the contraction exponent is the time average of the divergence along
    # the orbit; a state just off the cycle shows it as a distance ratio
    lam = pk.floquet_exponent(model, relax)
    x0 = relax.anchor * 1.001
    x1 = pk.flow(model, x0, relax.period, tol=(1e-12, 1e-14))
    ratio = relax.project(x1)[1] / relax.project(x0)[1]
    print(f"  distance ratio over one period {ratio:.3e} vs "
          f"exp(lambda T) = {np.exp(lam * relax.period):.3e}")


if __name__ == "__main__":
    main()
