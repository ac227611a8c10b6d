"""The closed-form velocity field memorizes: terminal spikes and atom copies.

The regression-optimal velocity over a finite training set is a softmax
average of per-atom bridge velocities with a 1/(1 - t) factor.  Integrating it
drives every sample onto a training atom: the nearest-neighbor gap ratio
collapses, and the instantaneous power develops late-time spikes that a
trained network does not show.  Compare both fields with the same midpoint
solver.
"""

import kinflow as kf
from kinflow.efm import EfmField


def main():
    data = kf.generate("dense_sparse", n=500, seed=7)

    print("training the neural baseline (2000 iterations)...")
    result = kf.train(data.points, kf.TrainConfig(iterations=2000, seed=1))

    runs = {
        "neural": (kf.NeuralVelocityField(result.params), 0.0),
        "closed-form": (EfmField(data.points, neighbors=100), 1e-3),
    }
    powers = {}
    for label, (field, delta_cut) in runs.items():
        cfg = kf.SolverConfig(method="midpoint", steps=100,
                              delta_cut=delta_cut, seed=5)
        batch = kf.sample_batch(field, 200, cfg)
        mem = kf.f_mem(batch.endpoint, data.points)
        mean_power = batch.power.mean(axis=0)
        powers[label] = (batch.times[:-1], mean_power)
        peak_step = int(mean_power.argmax())
        print(f"{label:12s} f_mem={mem.f_mem:.3f} "
              f"peak_power={mean_power.max():9.2f} "
              f"at t={batch.times[peak_step]:.3f} "
              f"mean_kpe={batch.kpe.mean():.2f}")

    ratio = powers["closed-form"][1].max() / powers["neural"][1].max()
    print(f"\npeak power ratio (closed-form / neural): {ratio:.1f}x")
    print("the closed-form field must hit an atom at t=1; paths that have not")
    print("converged yet pay a 1/(1-t)^2 power bill, which is the spike.")


if __name__ == "__main__":
    main()
