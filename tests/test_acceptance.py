"""Acceptance suite.

One test per criterion, each at its stated tolerance, printing one
pass line on success (run with ``pytest -s`` to see them). Criterion 7
runs on synthetic RGBD scenes generated by tests/scenes.py, written to
disk and driven through the real file-based harness.
"""

import json
import time

import numpy as np
import pytest

from gdsr.bench import (
    PipelineConfig,
    fit_feature_params,
    fit_image_lambda,
    load_manifest,
    run_bench,
    run_image,
    save_params,
)
from gdsr.dct import dct2_forward, dct2_inverse
from gdsr.feature_bank import (
    FilterBank,
    FilterPair,
    apply_head,
    channel_solve,
    extract,
    fit_head,
    fit_lambda,
)
from gdsr.guidance import EdgeWeightConfig, edge_weight, luminance, multichannel_edge_weight
from gdsr.imgio import save_error_map, save_image
from gdsr.resample import bicubic_kernel, degrade
from gdsr.spectral import (
    FIVE_POINT,
    build_rhs,
    derived_symbol,
    laplacian_apply,
    solve_screened,
)

from oracles import cg_solve, dct2_naive, dense_screened_solve, energy, pixel_fit_lambda
from scenes import make_scene, write_scene_files


def report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS - {text}")


def test_criterion_01_dct_round_trip_100_images():
    rng = np.random.default_rng(201)
    primes = [5, 13, 101, 127, 257, 379, 509]
    shapes = [(rng.choice(primes), rng.choice(primes)) for _ in range(10)]
    shapes += [tuple(rng.integers(4, 513, size=2)) for _ in range(90)]
    t0 = time.perf_counter()
    worst = 0.0
    for M, N in shapes:
        x = rng.standard_normal((int(M), int(N))) * rng.uniform(0.5, 20)
        back = dct2_inverse(dct2_forward(x))
        err = np.abs(back - x).max() / max(1.0, np.abs(x).max())
        worst = max(worst, err)
        assert err < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, f"100 round trips, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_fast_naive_equivalence():
    rng = np.random.default_rng(202)
    shapes = [(2, 2), (3, 512), (512, 3), (101, 97), (512, 512)]
    shapes += [tuple(rng.integers(2, 513, size=2)) for _ in range(16)]
    worst = 0.0
    for M, N in shapes:
        x = rng.random((int(M), int(N)))
        d = np.abs(dct2_forward(x) - dct2_naive(x, "forward")).max()
        d = max(d, np.abs(dct2_inverse(x) - dct2_naive(x, "inverse")).max())
        worst = max(worst, d)
        assert d < 1e-9
    report(2, f"{len(shapes)} shapes, worst abs diff {worst:.2e}")


def test_criterion_03_diagonalization_128x96():
    rng = np.random.default_rng(203)
    x = rng.random((128, 96))
    sym = derived_symbol(FIVE_POINT, 128, 96)
    diff = np.abs(dct2_forward(laplacian_apply(x)) - sym * dct2_forward(x)).max()
    assert diff < 1e-10
    report(3, f"max abs deviation {diff:.2e}")


def test_criterion_04_solver_exactness():
    rng = np.random.default_rng(204)
    e16 = rng.random((16, 16))
    sym16 = derived_symbol(FIVE_POINT, 16, 16)
    worst_dense = 0.0
    for lam in (0.01, 1.0, 100.0):
        h = solve_screened(e16, lam, sym16)
        want = dense_screened_solve(e16, lam, laplacian_apply)
        rel = np.abs(h - want).max() / np.abs(want).max()
        worst_dense = max(worst_dense, rel)
        assert rel < 1e-8
    e32 = rng.random((32, 32))
    sym32 = derived_symbol(FIVE_POINT, 32, 32)
    h_spec = solve_screened(e32, 2.5, sym32)
    h_cg = cg_solve(e32, 2.5, tol=1e-12)
    cg_diff = np.abs(h_spec - h_cg).max()
    assert cg_diff < 1e-6
    report(4, f"dense rel err {worst_dense:.2e}, cg diff {cg_diff:.2e}")


def test_criterion_05_stationarity():
    rng = np.random.default_rng(205)
    M, N = 24, 18
    l_up = rng.random((M, N))
    t = rng.standard_normal((M, N)) * 0.25
    lam = 3.0
    h = solve_screened(build_rhs(l_up, t, lam), lam, derived_symbol(FIVE_POINT, M, N))
    base = energy(h, l_up, t, lam)
    for _ in range(100):
        d = rng.choice([-1e-3, 1e-3], size=(M, N))
        assert base <= energy(h + d, l_up, t, lam) + 1e-9
    report(5, f"energy {base:.6f} minimal under 100 +/-1e-3 perturbations")


def test_criterion_06_degenerate_contracts(tmp_path):
    rng = np.random.default_rng(206)
    # lambda = 0 leaves the input untouched
    e = rng.random((20, 20))
    h = solve_screened(e, 0.0, derived_symbol(FIVE_POINT, 20, 20))
    assert np.abs(h - e).max() <= 1e-12
    # featureless guide produces an all-zero hard mask
    w = edge_weight(np.full((16, 16), 0.7), EdgeWeightConfig("hard", 0.9))
    assert np.array_equal(w, np.zeros((16, 16)))
    # constant-depth entry scores zero RMSE for every method
    depth = np.full((32, 32), 0.5)
    save_image(depth, tmp_path / "d.pgm", "pgm16")
    save_image(np.full((32, 32, 3), 0.3), tmp_path / "r.ppm", "ppm8")
    from gdsr.bench import DatasetEntry

    entry = DatasetEntry("const", str(tmp_path / "r.ppm"), str(tmp_path / "d.pgm"))
    worst = 0.0
    for method in ("bicubic", "image_domain", "feature_domain"):
        _, rec = run_image(entry, PipelineConfig(method=method, lam=1.0, scale=4), "t")
        worst = max(worst, rec.rmse)
        assert rec.rmse <= 1e-12
    report(6, f"identity/zero-mask/constant contracts hold (worst rmse {worst:.2e})")


@pytest.fixture(scope="module")
def scene_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenes")
    rng = np.random.default_rng(7)
    entries = [
        write_scene_files(root, f"scene{i}", *make_scene(rng, 128, 128))
        for i in range(5)
    ]
    path = root / "manifest.json"
    path.write_text(json.dumps({"name": "synth5", "entries": entries}))
    return load_manifest(path)


def test_criterion_07_end_to_end_improvement(scene_manifest, tmp_path):
    s = 8
    base_cfg = PipelineConfig(method="image_domain", scale=s)
    lam = fit_image_lambda(scene_manifest, base_cfg, s)
    cfg_img = PipelineConfig(method="image_domain", lam=lam, scale=s)
    cfg_bic = PipelineConfig(method="bicubic", scale=s)
    wins = 0
    img_sq, bic_sq = [], []
    for entry in scene_manifest.entries:
        r_img = run_image(entry, cfg_img, "t")[1].rmse
        r_bic = run_image(entry, cfg_bic, "t")[1].rmse
        wins += r_img < r_bic
        img_sq.append(r_img**2)
        bic_sq.append(r_bic**2)
    assert wins >= 4

    # feature pipeline fitted on the same (held-in) split
    lambdas, head, _ = fit_feature_params(scene_manifest, base_cfg, s)
    params = tmp_path / "feature.params.json"
    save_params(params, {
        "method": "feature",
        "bank": "default8",
        "lambdas": lambdas,
        "head_weights": head.weights,
        "head_bias": head.bias,
        "head_gamma": head.gamma,
        "config_hash": base_cfg.config_hash(),
    })
    cfg_feat = PipelineConfig(method="feature_domain", params_path=str(params), scale=s)
    feat_sq = [run_image(e, cfg_feat, "t")[1].rmse ** 2 for e in scene_manifest.entries]
    pooled_feat = float(np.sqrt(np.mean(feat_sq)))
    pooled_img = float(np.sqrt(np.mean(img_sq)))
    assert pooled_feat <= pooled_img
    report(7, f"image beats bicubic on {wins}/5 at x8 (lam {lam:.2f}); "
              f"feature {pooled_feat:.4f} <= image {pooled_img:.4f} on fit split")


def test_criterion_08_golden_section_vs_grid(scene_manifest):
    # single-channel task: identity pair, one training image
    entry = scene_manifest.entries[0]
    from gdsr.imgio import load_image
    from gdsr.resample import crop_to_multiple

    rgb = load_image(entry.rgb_path)
    gt = load_image(entry.depth_path)
    gt = crop_to_multiple(gt, 4)
    _, up = degrade(gt, 4)
    identity = np.array([[1.0]])
    bank = FilterBank((FilterPair(identity, identity, shared=True),), name="id1")
    cfg_e = EdgeWeightConfig("hard", 0.9)
    phi_l = extract(up, bank, "depth")
    phi_r = extract(luminance(rgb), bank, "guide")
    w = multichannel_edge_weight(phi_r, cfg_e)

    (lambdas, _), _ = fit_lambda([(up, luminance(rgb), gt)], bank, cfg_e,
                                 head_gamma=1e-8, grid_points=9, sweeps=1)

    sym = derived_symbol(FIVE_POINT, *gt.shape)

    def objective(lam):
        solved = channel_solve(phi_l, phi_r, w, np.array([lam]), sym)
        head = fit_head([solved], [gt], 1e-8)
        pred = apply_head(solved, head)
        return float(np.sqrt(np.mean((pred - gt) ** 2)))

    grid = np.linspace(-4.0, 4.0, 50)
    vals = [objective(np.exp(v)) for v in grid]
    best = grid[int(np.argmin(vals))]
    cell = 8.0 / 49.0
    distance = abs(np.log(lambdas[0]) - best)
    assert distance <= cell + 1e-9
    report(8, f"golden log-lambda {np.log(lambdas[0]):.4f} within "
              f"{distance:.4f} (<= cell {cell:.4f}) of 50-point grid optimum {best:.4f}")


def test_criterion_08_search_matches_pixel_objective_search(scene_manifest):
    # the criterion-08 task; the lambda search on DCT coefficients must pick
    # exactly the lambda the same search picks on the pixel-domain objective
    entry = scene_manifest.entries[0]
    from gdsr.imgio import load_image
    from gdsr.resample import crop_to_multiple

    rgb = load_image(entry.rgb_path)
    gt = crop_to_multiple(load_image(entry.depth_path), 4)
    _, up = degrade(gt, 4)
    identity = np.array([[1.0]])
    bank = FilterBank((FilterPair(identity, identity, shared=True),), name="id1")
    cfg_e = EdgeWeightConfig("hard", 0.9)
    triple = (up, luminance(rgb), gt)
    (lambdas, _), _ = fit_lambda([triple], bank, cfg_e, head_gamma=1e-8, grid_points=9,
                                 sweeps=1)
    assert np.array_equal(
        lambdas, pixel_fit_lambda([triple], bank, cfg_e, 1e-8, grid_points=9, sweeps=1))


def test_criterion_09_bicubic_kernel_and_constants():
    assert bicubic_kernel(0.0) == 1.0
    assert bicubic_kernel(1.0) == 0.0
    assert abs(bicubic_kernel(0.5) - 0.5625) < 1e-15
    worst = 0.0
    for s in (2, 4, 8, 16):
        gt = np.full((2 * s, 3 * s), 0.375)
        lr, up = degrade(gt, s)
        worst = max(worst, np.abs(lr - 0.375).max(), np.abs(up - 0.375).max())
        assert np.abs(lr - 0.375).max() < 1e-12
        assert np.abs(up - 0.375).max() < 1e-12
    report(9, f"kernel points exact; constants preserved at all scales (worst {worst:.2e})")


def test_criterion_10_performance(tmp_path):
    rng = np.random.default_rng(210)
    gt, rgb = make_scene(rng, 512, 384, n_shapes=8)
    entry_dict = write_scene_files(tmp_path, "big", gt, rgb)
    from gdsr.bench import DatasetEntry

    big = DatasetEntry(**{**entry_dict,
                          "rgb_path": str(tmp_path / entry_dict["rgb_path"]),
                          "depth_path": str(tmp_path / entry_dict["depth_path"])})
    cfg = PipelineConfig(method="image_domain", lam=10.0, scale=8)
    t0 = time.perf_counter()
    run_image(big, cfg, "perf")
    single = time.perf_counter() - t0
    assert single < 2.0

    entries = [
        write_scene_files(tmp_path, f"b{i:02d}", *make_scene(rng, 192, 144, n_shapes=4))
        for i in range(30)
    ]
    manifest_path = tmp_path / "bench30.json"
    manifest_path.write_text(json.dumps({"name": "bench30", "entries": entries}))
    manifest = load_manifest(manifest_path)
    t0 = time.perf_counter()
    records = run_bench(manifest, [4, 8, 16],
                        [PipelineConfig(method="image_domain", lam=10.0)],
                        threads=8)
    wall = time.perf_counter() - t0
    assert wall < 180.0
    assert sum(r.image_id != "__mean__" for r in records) == 90
    report(10, f"512x384 x8 in {single:.2f}s (< 2s); "
               f"30-image 3-scale bench in {wall:.1f}s with 8 workers (< 180s)")


def test_criterion_11_determinism(scene_manifest, tmp_path):
    cfgs = [PipelineConfig(method="bicubic"),
            PipelineConfig(method="image_domain", lam=5.0)]
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    run_bench(scene_manifest, [8], cfgs, out1, threads=2, timing=False)
    run_bench(scene_manifest, [8], cfgs, out2, threads=2, timing=False)
    assert out1.read_bytes() == out2.read_bytes()

    entry = scene_manifest.entries[0]
    cfg = PipelineConfig(method="image_domain", lam=5.0, scale=8)
    pred, _ = run_image(entry, cfg, "t")
    from gdsr.imgio import load_image
    from gdsr.resample import crop_to_multiple

    gt_full = load_image(entry.depth_path)
    gt = crop_to_multiple(gt_full, 8)
    m1, m2 = tmp_path / "e1.pgm", tmp_path / "e2.pgm"
    save_error_map(pred, gt, m1, max_err=0.1)
    save_error_map(pred, gt, m2, max_err=0.1)
    assert m1.read_bytes() == m2.read_bytes()
    report(11, "repeated bench CSV and error maps byte-identical")
