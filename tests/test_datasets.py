"""Tests for the stratified dataset generators and the KDE ground truth."""

import numpy as np
import pytest

from kinflow import datasets
from kinflow.datasets import (KdeEstimator, gen_dense_sparse,
                              gen_multiscale_clusters, gen_sandwich, generate,
                              infer_kind, load_csv, loads_csv, save_csv)


class TestDenseSparse:
    def test_proportions_n1000(self):
        d = gen_dense_sparse(1000, 7)
        assert d.strata.count("dense_core") == 600
        assert d.strata.count("sparse_ring") == 400

    def test_proportions_n10(self):
        d = gen_dense_sparse(10, 3)
        assert d.strata.count("dense_core") == 6
        assert d.strata.count("sparse_ring") == 4

    def test_deterministic(self):
        a = gen_dense_sparse(1000, 7)
        b = gen_dense_sparse(1000, 7)
        assert np.array_equal(a.points, b.points)
        assert a.strata == b.strata

    def test_seed_changes_points(self):
        a = gen_dense_sparse(100, 7)
        b = gen_dense_sparse(100, 8)
        assert not np.array_equal(a.points, b.points)

    def test_core_is_tight(self):
        d = gen_dense_sparse(1000, 7)
        core = d.points[d.mask("dense_core")]
        assert np.linalg.norm(core.mean(axis=0)) < 0.05
        assert abs(core.std() - 0.15) < 0.03

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            gen_dense_sparse(9, 0)

    def test_density_contrast(self):
        # dense core sits at least 5x above the ring in ground-truth density
        d = gen_dense_sparse(1000, 7)
        est = KdeEstimator(d.points, 0.1)
        core = est.density(d.points[d.mask("dense_core")]).mean()
        ring = est.density(d.points[d.mask("sparse_ring")]).mean()
        assert core > 5.0 * ring


class TestMultiscaleClusters:
    def test_partition_n5_remainder(self):
        # floor rule sends the remainder to the first-listed stratum
        d = gen_multiscale_clusters(10, 1)
        assert d.strata.count("sparse_center") == 2
        assert d.strata.count("dense_cluster") == 8

    def test_cluster_means(self):
        d = gen_multiscale_clusters(1000, 11)
        pts = d.points[d.mask("dense_cluster")]
        tol = 3 * 0.08 / np.sqrt(200)
        for i, center in enumerate([(2, 0), (0, 2), (-2, 0), (0, -2)]):
            grp = pts[200 * i:200 * (i + 1)]
            assert np.all(np.abs(grp.mean(axis=0) - center) < tol)

    def test_cluster_std(self):
        d = gen_multiscale_clusters(1000, 11)
        grp = d.points[d.mask("dense_cluster")][:200]
        std = grp.std(axis=0, ddof=1).mean()
        assert abs(std - 0.08) < 0.2 * 0.08

    def test_deterministic(self):
        a = gen_multiscale_clusters(500, 2)
        b = gen_multiscale_clusters(500, 2)
        assert np.array_equal(a.points, b.points)


class TestSandwich:
    def test_split_n1000(self):
        d = gen_sandwich(1000, 13)
        assert d.strata.count("dense_band") == 600
        assert d.strata.count("sparse_band") == 400

    def test_band_geometry(self):
        d = gen_sandwich(1000, 13)
        mid = d.points[d.mask("dense_band")]
        outer = d.points[d.mask("sparse_band")]
        assert abs(mid[:, 1].mean()) < 0.05
        assert np.all(np.abs(outer[:, 1]) > 0.4)

    def test_deterministic(self):
        a = gen_sandwich(200, 4)
        b = gen_sandwich(200, 4)
        assert np.array_equal(a.points, b.points)


class TestGenerateDispatch:
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
        d = gen_dense_sparse(1000, 7)
        est = KdeEstimator(d.points, 0.1)
        lo = d.points.min(axis=0) - 0.5
        hi = d.points.max(axis=0) + 0.5
        rng = np.random.default_rng(99)
        u = lo + (hi - lo) * rng.random((400_000, 2))
        integral = est.density(u).mean() * np.prod(hi - lo)
        assert integral == pytest.approx(1.0, abs=0.02)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            KdeEstimator(np.zeros((0, 2)), 0.1)
        with pytest.raises(ValueError):
            KdeEstimator(np.zeros((3, 2)), 0.0)


class TestCsvRoundTrip:
    def test_lossless(self, tmp_path):
        d = gen_multiscale_clusters(137, 21)
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
