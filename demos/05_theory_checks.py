"""Numerically verify the energy-density and terminal blow-up bounds.

Wherever one mixture component dominates the posterior, the squared speed of
the closed-form field is sandwiched between affine functions of the negative
log-density, with slopes exactly 1/2 and 12 on the linear bridge.  This
script samples dominant points in several dimensions and mixture sizes and
checks every bound, then probes the terminal energy of a frozen off-manifold
point against its analytic divergence rate and validates the Cauchy-Schwarz
tail bound on random atom-terminating paths.
"""

import numpy as np

import kinflow as kf
from kinflow.efm import EfmField, MixtureModel


def main():
    rng = np.random.default_rng(0)

    print("energy-density bounds on sampled dominant points:")
    for dim in (1, 2, 5):
        atoms = 20.0 * rng.standard_normal((20, dim))
        mix = MixtureModel(atoms)
        pts, rejected = kf.sample_dominant_points(
            mix, np.linspace(0.1, 0.9, 9), eps=0.1, per_time=100, rng=rng)
        report = kf.check_energy_density_bounds(mix, pts, eps=0.1)
        consts = kf.bound_constants(mix, 0.5, 0, 0.1)
        print(f"  d={dim}: {report.n_checked} points checked "
              f"({rejected} rejected by dominance), pass rate "
              f"{report.pass_rate:.3f}, slopes=({consts.lower_slope}, "
              f"{consts.upper_slope})")

    print("\nterminal blow-up of a frozen point (single atom, analytic case):")
    field = EfmField(np.array([[0.0, 0.0]]))
    probe = kf.blowup_probe(field, np.array([1.0, 0.0]), c=1.0,
                            deltas=[1e-2, 1e-3, 1e-4])
    for entry in probe.entries:
        analytic = 1.0 / entry.delta - 1.0 / (1.0 - probe.t_bar)
        print(f"  delta={entry.delta:7.0e}  integral={entry.integral:12.2f}  "
              f"analytic={analytic:12.2f}  bound={entry.lower_bound:10.2f}  "
              f"pass={entry.passed}")

    print("\ntail-energy lower bound on random atom-terminating paths:")
    ok = 0
    for _ in range(100):
        atom = rng.standard_normal(2)
        times = np.linspace(0.0, 1.0, 80)
        states = 0.3 * rng.standard_normal((80, 2)).cumsum(axis=0)
        states += atom - states[-1]
        _, _, passed = kf.universal_lower_bound_check(times, states, atom, 0.5)
        ok += passed
    print(f"  {ok}/100 random paths satisfy the bound")


if __name__ == "__main__":
    main()
