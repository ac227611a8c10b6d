"""Two-phase velocity shaping: boost early motion, damp the landing.

The gain schedule multiplies the learned field by
eta(t) = 1 + alpha0 * (1 - t / 0.6) before the split and
1 - beta0 * (exp(3 (t - 0.6)) - 1) after it.  Sweeping alpha0 raises the
early-phase energy; sweeping beta0 lowers the late-phase energy and with it
the fraction of samples that land within the memorization gap ratio of a
training atom.
"""

import kinflow as kf


def main():
    data = kf.generate("dense_sparse", n=500, seed=7)
    print("training (2000 iterations)...")
    result = kf.train(data.points, kf.TrainConfig(iterations=2000, seed=1))
    cfg = kf.SolverConfig(method="euler", steps=50, seed=5)
    cells = [(0.0, 0.0), (0.01, 0.0), (0.02, 0.0),
             (0.0, 0.01), (0.0, 0.02), (0.01, 0.01)]
    m = 200
    # every cell integrates the same starts; all 6 x 200 rows share each field call
    batch = kf.sample_batch(kf.NeuralVelocityField(result.params), m, cfg,
                            schedules=[kf.KtsSchedule(alpha0=a0, beta0=b0)
                                       for a0, b0 in cells])

    print(f"{'alpha0':>7} {'beta0':>7} {'kpe_early':>10} {'kpe_late':>9} {'f_mem':>6}")
    for c, (a0, b0) in enumerate(cells):
        block = batch[c * m:(c + 1) * m]
        mem = kf.f_mem(block.endpoint, data.points)
        print(f"{a0:7.2f} {b0:7.2f} {block.kpe_early.mean():10.4f} "
              f"{block.kpe_late.mean():9.4f} {mem.f_mem:6.3f}")

    print("\nthe launch knob moves the early column up; the landing knob moves")
    print("the late column down. The memorization effect of damping shows up")
    print("once the model is trained long enough to land near atoms at all;")
    print("at this quick demo scale f_mem is small and noisy either way.")


if __name__ == "__main__":
    main()
