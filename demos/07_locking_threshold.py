"""Locking threshold of a 2:1 resonance and its square-root scaling.

A relaxation oscillator driven one way by a clean rotator at twice its
frequency locks subharmonically: every first-order averaged term beats at a
fast frequency, so the slow combination 2*theta_slow - theta_drive is first
forced at second order.  Locking capacity then grows like eps^2, and the
critical coupling like sqrt(detuning).  This demo bisects the threshold at
one detuning (some seconds); the full four-detuning scaling fit is wired
into the command line as `phasekit sweep` / `phasekit fit-scaling`.
"""

import numpy as np

import phasekit as pk


def main():
    d_omega = 0.02
    lo, hi = pk.subharmonic_bracket(d_omega)
    # narrowed bracket around the known transition keeps the demo quick;
    # the full bracket is what the sweep command scans
    lo, hi = 0.045, 0.055

    print("=== 2:1 subharmonic locking threshold ===")
    print(f"detuning {d_omega}, scanning coupling in [{lo}, {hi}]")

    # one spec serves every coupling strength the bisection tries
    spec = pk.subharmonic_pair(d_omega, lo)
    strobe = pk.subharmonic_strobe(spec)
    res = pk.critical_coupling(
        spec, lo, hi, rel_width=0.05, t_sim=max(1500.0, 25.0 / d_omega),
        weights=pk.SUBHARMONIC_WEIGHTS, strobe_period=strobe,
        tol=(1e-6, 1e-8))

    print(f"\ncritical coupling eps_c = {res.eps_c:.5f} "
          f"(bracket [{res.bracket[0]:.5f}, {res.bracket[1]:.5f}], "
          f"{res.n_runs} runs)")
    for eps in sorted(res.reports):
        rep = res.reports[eps]
        state = "locked " if rep.locked else "drifting"
        print(f"  eps = {eps:.5f}   {state}   S = {rep.S:.2e}")

    print("\nsquare-root law: eps_c(d) = eps_c(0.02) * sqrt(d / 0.02)")
    for d in (0.01, 0.02, 0.04, 0.08):
        pred = res.eps_c * np.sqrt(d / 0.02)
        print(f"  d_omega = {d:5.2f}   predicted eps_c ~ {pred:.4f}")
    print("\n(run `phasekit sweep` / `phasekit fit-scaling` to measure the")
    print(" exponent from simulations; it comes out near 0.5)")


if __name__ == "__main__":
    main()
