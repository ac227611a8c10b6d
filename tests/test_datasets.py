"""Tests for the stratified dataset generators and the KDE ground truth."""

import hashlib

import numpy as np
import pytest

from kinflow import datasets
from kinflow.datasets import (KdeEstimator, generate, infer_kind, load_csv,
                              loads_csv, save_csv)


class TestDenseSparse:
    def test_proportions_n1000(self):
        d = generate("dense_sparse", 1000, 7)
        assert d.strata.count("dense_core") == 600
        assert d.strata.count("sparse_ring") == 400

    def test_proportions_n10(self):
        d = generate("dense_sparse", 10, 3)
        assert d.strata.count("dense_core") == 6
        assert d.strata.count("sparse_ring") == 4

    def test_deterministic(self):
        a = generate("dense_sparse", 1000, 7)
        b = generate("dense_sparse", 1000, 7)
        assert np.array_equal(a.points, b.points)
        assert a.strata == b.strata

    def test_seed_changes_points(self):
        a = generate("dense_sparse", 100, 7)
        b = generate("dense_sparse", 100, 8)
        assert not np.array_equal(a.points, b.points)

    def test_core_is_tight(self):
        d = generate("dense_sparse", 1000, 7)
        core = d.points[d.mask("dense_core")]
        assert np.linalg.norm(core.mean(axis=0)) < 0.05
        assert abs(core.std() - 0.15) < 0.03

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            generate("dense_sparse", 9, 0)

    def test_density_contrast(self):
        # dense core sits at least 5x above the ring in ground-truth density
        d = generate("dense_sparse", 1000, 7)
        est = KdeEstimator(d.points, 0.1)
        core = est.density(d.points[d.mask("dense_core")]).mean()
        ring = est.density(d.points[d.mask("sparse_ring")]).mean()
        assert core > 5.0 * ring


class TestMultiscaleClusters:
    def test_partition_n5_remainder(self):
        # floor rule sends the remainder to the first-listed stratum
        d = generate("multiscale_clusters", 10, 1)
        assert d.strata.count("sparse_center") == 2
        assert d.strata.count("dense_cluster") == 8

    def test_cluster_means(self):
        d = generate("multiscale_clusters", 1000, 11)
        pts = d.points[d.mask("dense_cluster")]
        tol = 3 * 0.08 / np.sqrt(200)
        for i, center in enumerate([(2, 0), (0, 2), (-2, 0), (0, -2)]):
            grp = pts[200 * i:200 * (i + 1)]
            assert np.all(np.abs(grp.mean(axis=0) - center) < tol)

    def test_cluster_std(self):
        d = generate("multiscale_clusters", 1000, 11)
        grp = d.points[d.mask("dense_cluster")][:200]
        std = grp.std(axis=0, ddof=1).mean()
        assert abs(std - 0.08) < 0.2 * 0.08

    def test_deterministic(self):
        a = generate("multiscale_clusters", 500, 2)
        b = generate("multiscale_clusters", 500, 2)
        assert np.array_equal(a.points, b.points)


class TestSandwich:
    def test_split_n1000(self):
        d = generate("sandwich", 1000, 13)
        assert d.strata.count("dense_band") == 600
        assert d.strata.count("sparse_band") == 400

    def test_band_geometry(self):
        d = generate("sandwich", 1000, 13)
        mid = d.points[d.mask("dense_band")]
        outer = d.points[d.mask("sparse_band")]
        assert abs(mid[:, 1].mean()) < 0.05
        assert np.all(np.abs(outer[:, 1]) > 0.4)

    def test_deterministic(self):
        a = generate("sandwich", 200, 4)
        b = generate("sandwich", 200, 4)
        assert np.array_equal(a.points, b.points)


#: SHA-256 of save_csv's bytes for generate(kind, n, 0)
CSV_SHA256 = {
    ("dense_sparse", 10): "e6a462ac01aa1aa09353c50d7cf6d922b56d215597cbe99b9b60c9bdb8703dba",
    ("dense_sparse", 11): "ccdcf1ea236de7fe5d54ef2fb3199a0fc08e190c2a0bf59cbbe74abf9350b432",
    ("dense_sparse", 137): "bc41a0429f15085f1c606b1fb9e6ed34b4aebdcee4661c9e94213ccdc96110bd",
    ("dense_sparse", 1001): "3f1fdfa84ac4cfaa10289cab24a3cf8153abc4c7c7d9d7df2edaf91aa801a373",
    ("multiscale_clusters", 10): "cb02cc6074568989affdc0f689deee47b572a35ab25cc774fc51ab3e20ddccc2",
    ("multiscale_clusters", 11): "e9f05e00c1366d31f0ca9604a182c0fe20dc7d861b7ec1c9c573435a6e8e72cd",
    ("multiscale_clusters", 137): "b2822ea42703a539181b495c1a1d5dd8240e86c70cd0e9db1db61e87721698c1",
    ("multiscale_clusters", 1001): "a5d3948b294accdd6e37db5863a83961f5b4641dbc05fa499a2546aecbb0718b",
    ("sandwich", 10): "fc97c42d270af88b33384dacd932e89feff76b3eaff757e886100b4396df3bf2",
    ("sandwich", 11): "89b5c61c64d03858c8f23bd7a1f5ed018ba383c49eb44dbf9a5692ed561f358e",
    ("sandwich", 137): "b0235dfa51d65087b0290e000005764d5d3cd4a055404ae470b7a3e5265264f3",
    ("sandwich", 1001): "e9e81cd21dda7893a932bfe2e559b90098ed1023ca62c682ea81d818009a3d0f",
}


class TestGenerateDispatch:
    @pytest.mark.parametrize("kind, n", CSV_SHA256)
    def test_csv_bytes_are_pinned(self, kind, n, tmp_path):
        path = tmp_path / "data.csv"
        save_csv(generate(kind, n, 0), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_SHA256[kind, n]

    def test_kinds_and_strata_are_pinned(self):
        assert datasets.DATASET_KINDS == ("dense_sparse", "multiscale_clusters", "sandwich")
        assert datasets.STRATA_BY_KIND == {
            "dense_sparse": ("dense_core", "sparse_ring"),
            "multiscale_clusters": ("sparse_center", "dense_cluster"),
            "sandwich": ("dense_band", "sparse_band"),
        }

    def test_all_kinds(self):
        for kind in datasets.DATASET_KINDS:
            d = generate(kind, 50, 0)
            assert d.kind == kind and d.n == 50

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("bananas", 100, 0)


class TestKde:
    def test_single_reference_at_origin(self):
        est = KdeEstimator(np.zeros((1, 2)), 0.1)
        expected = 1.0 / (2 * np.pi * 0.01)
        assert est.density(np.zeros(2)) == pytest.approx(expected, rel=1e-12)

    def test_monotone_decay(self):
        est = KdeEstimator(np.zeros((1, 2)), 0.1)
        radii = [0.5, 1.0, 1.5, 2.0, 3.0]
        vals = [est.density(np.array([r, 0.0])) for r in radii]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_symmetric_midpoint(self):
        est2 = KdeEstimator(np.array([[-1.0, 0.0], [1.0, 0.0]]), 0.1)
        est1 = KdeEstimator(np.array([[1.0, 0.0]]), 0.1)
        q = np.zeros(2)
        assert est2.density(q) == pytest.approx(est1.density(q), rel=1e-12)

    def test_integrates_to_one(self):
        # Monte-Carlo integral over a bounding box, frozen seed, 2% tolerance
        d = generate("dense_sparse", 1000, 7)
        est = KdeEstimator(d.points, 0.1)
        lo = d.points.min(axis=0) - 0.5
        hi = d.points.max(axis=0) + 0.5
        rng = np.random.default_rng(99)
        u = lo + (hi - lo) * rng.random((400_000, 2))
        integral = est.density(u).mean() * np.prod(hi - lo)
        assert integral == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("d, half_width, points", [(1, 6.0, 12001), (3, 3.0, 61)])
    def test_one_atom_integrates_to_one_in_d_dimensions(self, d, half_width, points):
        # a Riemann sum on a grid of spacing h / 5 or finer is exact for a
        # Gaussian to far below the tolerance; the normalizer 1 / (2 pi h^2)
        # of d = 2 gives 0.798 at d = 1 and 1.253 at d = 3
        axis = np.linspace(-half_width, half_width, points)
        grid = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
        est = KdeEstimator(np.full((1, d), 0.25), 0.5)
        integral = est.density(grid + 0.25).sum() * (axis[1] - axis[0]) ** d
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_normalizer_that_cannot_be_finite_raises(self):
        # at d = 3, h = 1e-110 passes the bandwidth check, but
        # (2 pi h^2)^(3/2) underflows to 0
        with pytest.raises(ValueError, match="kde_bandwidth"):
            KdeEstimator(np.zeros((3, 3)), 1e-110)

    def test_tiny_bandwidth_gives_zero_without_a_warning(self):
        # 1.5e-154 has a normal square, but -d2 / (2 h^2) overflows for every
        # pair not on top of each other; exp's limit there is 0
        d = generate("dense_sparse", 100, 3)
        queries = d.points + 0.01
        assert np.all(KdeEstimator(d.points, 1.5e-154).density(queries) == 0.0)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            KdeEstimator(np.zeros((0, 2)), 0.1)
        with pytest.raises(ValueError):
            KdeEstimator(np.zeros((3, 2)), 0.0)

    @pytest.mark.parametrize("bandwidth", [float("inf"), 1e300, 1e-160, 1e-200, float("nan"),
                                           -0.1, True])
    def test_bandwidth_needs_a_positive_finite_square(self, bandwidth):
        # h^2 overflows at 1e300, is 0 at 1e-200, and at 1e-160 is subnormal,
        # so the normalizer 1 / (n 2 pi h^2) overflows
        with pytest.raises(ValueError, match="kde_bandwidth"):
            KdeEstimator(np.zeros((3, 2)), bandwidth)


class TestCsvRoundTrip:
    def test_lossless(self, tmp_path):
        d = generate("multiscale_clusters", 137, 21)
        path = tmp_path / "data.csv"
        save_csv(d, path)
        back = load_csv(path)
        assert np.array_equal(back.points, d.points)
        assert back.strata == d.strata
        assert back.kind == d.kind  # inferred from labels

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,dense_core\n")
        with pytest.raises(ValueError):
            load_csv(path)

    @pytest.mark.parametrize("row", ["1.0,2.0", "1.0,2.0,dense_core,extra"])
    def test_rows_need_exactly_three_fields(self, row):
        with pytest.raises(ValueError, match="line 3: expected 3 fields"):
            loads_csv(f"x,y,stratum\n0.5,0.5,dense_core\n{row}\n")

    @pytest.mark.parametrize("row, match", [
        ("abc,1,dense_core", "line 3: could not convert string to float: 'abc'"),
        ("nan,1,dense_core", "line 3: coordinates must be finite"),
        ("1,-inf,dense_core", "line 3: coordinates must be finite"),
    ])
    def test_bad_coordinate_names_its_line(self, row, match):
        with pytest.raises(ValueError, match=match):
            loads_csv(f"x,y,stratum\n0.5,0.5,dense_core\n{row}\n")

    def test_infer_kind(self):
        assert infer_kind(["dense_core", "sparse_ring"]) == "dense_sparse"
        assert infer_kind(["dense_band"]) == "sandwich"
        assert infer_kind(["dense_core", "dense_band"]) == "unknown"
