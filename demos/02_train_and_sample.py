"""Train a small velocity field and relate trajectory energy to density.

The network regresses bridge velocities; sampling integrates its ODE from
standard-normal noise while accumulating the kinetic path energy
E = 1/2 integral ||v||^2 dt per trajectory.  On the core-plus-ring data the
trajectories that end on the sparse ring travel much farther than the ones
that settle in the dense core, so their energy is sharply higher.

This demo trains briefly (2000 steps) to stay fast; the pipeline profiles in
the CLI run longer.
"""

import kinflow as kf


def main():
    data = kf.generate("dense_sparse", n=500, seed=7)
    print("training (2000 iterations)...")
    result = kf.train(data.points, kf.TrainConfig(iterations=2000, seed=1))
    print(f"  loss {result.losses[:50].mean():.3f} -> {result.losses[-200:].mean():.3f}")

    field = kf.NeuralVelocityField(result.params)
    cfg = kf.SolverConfig(method="euler", steps=50, seed=5)
    batch = kf.sample_batch(field, 200, cfg)
    report = kf.kpe_density_report(batch.kpe, batch.endpoint, data)
    # the report's stratum groups: each endpoint takes its nearest training point's
    n_sparse = sum(s.startswith("sparse")
                   for s in kf.diagnostics.nearest_strata(batch.endpoint, data))

    print(f"sampled {len(batch)} trajectories, mean energy {batch.kpe.mean():.3f}")
    print(f"  energy of sparse-stratum endpoints: {report.mean_kpe_sparse:.3f} "
          f"({n_sparse} trajectories)")
    print(f"  energy of dense-stratum endpoints:  {report.mean_kpe_dense:.3f} "
          f"({len(batch) - n_sparse} trajectories)")
    print(f"  rank correlation with log k-NN density: {report.rho_knn:+.3f}")
    print(f"  rank correlation with log KDE density:  {report.rho_kde:+.3f}")
    print(f"  stratum comparison p-value: {report.mwu_p:.2e}")


if __name__ == "__main__":
    main()
