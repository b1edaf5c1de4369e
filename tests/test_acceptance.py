"""End-to-end acceptance suite.

Each test prints a single `ACCEPTANCE <n>: PASS|FAIL` line with the measured
numbers, then asserts.  Criteria 1-3 and 9 exercise the full experiment
pipeline on the bundled phantoms; 4-8 drive the numerical kernels directly
against independent oracles.
"""
import dataclasses
import json
import statistics
import time

import numpy as np
import pytest

from palpmap.acquisition import expected_improvement
from palpmap.care import CompatibleSet, ProbeMeasurement, estimate_stiffness
from palpmap.cli import compare_strategies, evaluate, execute_experiment, load_config, main
from palpmap.geometry import make_transform, rigid_fit_svd
from palpmap.gp import KernelParams, TrainingSet, gp_fit, gp_predict
from palpmap.simulator import (NoiseSpec, artery_phantom, make_surface_mesh,
                               multimodal_phantom, save_phantom)

from _oracles import closest_point_brute, slope_least_squares


def verdict(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# Shared phantom bundles and configs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def multimodal_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("multimodal")
    save_phantom(multimodal_phantom(), root / "phantom.json")
    doc = {
        "phantom": "phantom.json",
        "roi": {"xmin": 0.0, "xmax": 40.0, "ymin": 0.0, "ymax": 40.0,
                "spacing": 1.0},
        "budget": 100,
        "strategy": "ei",
        "output_dir": "out",
        "master_seed": 1,
    }
    path = root / "config.json"
    path.write_text(json.dumps(doc, indent=2))
    return load_config(path)


@pytest.fixture(scope="session")
def artery_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("artery")
    save_phantom(artery_phantom(), root / "phantom.json")
    doc = {
        "phantom": "phantom.json",
        "roi": {"xmin": 0.0, "xmax": 60.0, "ymin": 0.0, "ymax": 60.0,
                "spacing": 1.5},
        "budget": 100,
        "strategy": "ei",
        "output_dir": "out",
        "master_seed": 1,
    }
    path = root / "config.json"
    path.write_text(json.dumps(doc, indent=2))
    return load_config(path)


# ---------------------------------------------------------------------------
# 1. Noise-free registration on the three-inclusion phantom
# ---------------------------------------------------------------------------

def test_criterion_1_registration_noise_free(multimodal_config):
    t0 = time.perf_counter()
    [report] = evaluate([execute_experiment(multimodal_config)])
    elapsed = time.perf_counter() - t0
    ok = (report.probe_count == 119
          and report.rms_mm <= 1.2
          and max(report.translation_error_mm) <= 1.0
          and max(report.rotation_error_deg) <= 1.5
          and elapsed <= 60.0)
    verdict(1, ok,
            f"rms={report.rms_mm:.4f}mm "
            f"t_err={tuple(round(v, 4) for v in report.translation_error_mm)}mm "
            f"r_err={tuple(round(v, 4) for v in report.rotation_error_deg)}deg "
            f"probes={report.probe_count} wall={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Registration under sensor noise, median of five seeds
# ---------------------------------------------------------------------------

def test_criterion_2_registration_with_noise(multimodal_config):
    noisy = dataclasses.replace(
        multimodal_config,
        noise=NoiseSpec(position_sigma_mm=0.3, force_sigma_n=0.1))
    t0 = time.perf_counter()
    rms = []
    for seed in (1, 2, 3, 4, 5):
        [report] = evaluate([execute_experiment(dataclasses.replace(noisy, master_seed=seed))])
        rms.append(report.rms_mm)
    elapsed = time.perf_counter() - t0
    med = statistics.median(rms)
    ok = med <= 1.6 and elapsed <= 300.0
    verdict(2, ok,
            f"median_rms={med:.4f}mm per_seed={[round(v, 3) for v in rms]} "
            f"wall={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Targeted sampling beats a uniform lattice on the artery phantom
# ---------------------------------------------------------------------------

def test_criterion_3_ei_beats_uniform(artery_config, tmp_path):
    wins = 0
    pairs = []
    for seed in (1, 2, 3, 4, 5):
        cfg = dataclasses.replace(artery_config, master_seed=seed,
                                  output_dir=tmp_path / f"seed{seed}")
        compare_strategies(cfg)
        summary = json.loads(
            (tmp_path / f"seed{seed}" / "comparison.json").read_text())
        ei_top = summary["ei"]["top_decile_rmse"]
        uni_top = summary["uniform"]["top_decile_rmse"]
        pairs.append((round(ei_top, 3), round(uni_top, 3)))
        if ei_top < uni_top:
            wins += 1
    ok = wins >= 4
    verdict(3, ok, f"wins={wins}/5 (ei_top_rmse, uniform_top_rmse)={pairs}")


# ---------------------------------------------------------------------------
# 4. Gaussian-process posterior properties
# ---------------------------------------------------------------------------

def test_criterion_4_gp_posterior():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 40.0, (30, 2))
    ys = rng.uniform(0.5, 4.0, 30)
    params = KernelParams(jitter=1e-10)
    model = gp_fit(TrainingSet(pts, ys), params)
    at_train = gp_predict(model, pts)
    interp_err = float(np.max(np.abs(at_train.mean - ys)))
    train_var = float(np.max(at_train.variance))

    queries = rng.uniform(-10.0, 50.0, (500, 2))
    everywhere = gp_predict(model, queries)
    var_min = float(np.min(everywhere.variance))
    var_max = float(np.max(everywhere.variance))

    # y=2 at the origin and y=0 20 length scales away, whose correlations are
    # below 1e-78: one length scale from the origin the mean is the offset 1
    # plus exp(-1/2) times the origin's residual 1
    pair = gp_fit(TrainingSet(np.array([[0.0, 0.0], [60.0, 0.0]]), np.array([2.0, 0.0])),
                  KernelParams(jitter=0.0))
    at_ls = gp_predict(pair, np.array([[3.0, 0.0]]))
    mean_err = abs(float(at_ls.mean[0]) - (1.0 + np.exp(-0.5)))
    var_err = abs(float(at_ls.variance[0]) - (1.0 - np.exp(-1.0)))

    ok = (interp_err <= 1e-6 and train_var <= 1e-6
          and var_min >= 0.0 and var_max <= params.sigma_f + 1e-9
          and mean_err <= 1e-9 and var_err <= 1e-9)
    verdict(4, ok,
            f"interp_err={interp_err:.2e} train_var={train_var:.2e} "
            f"var_range=[{var_min:.2e},{var_max:.6f}] "
            f"closed_form_err=({mean_err:.2e},{var_err:.2e})")


# ---------------------------------------------------------------------------
# 5. Expected-improvement analytics
# ---------------------------------------------------------------------------

def test_criterion_5_expected_improvement():
    zero_sigma = float(np.max(np.abs(expected_improvement(
        np.array([0.0, 1.0, 5.0]), np.zeros(3), 1.0))))
    at_best = float(expected_improvement(
        np.array([1.0]), np.array([1.0]), 1.0)[0])
    at_best_err = abs(at_best - 0.398942)

    rng = np.random.default_rng(12)
    mono_fail = 0
    for _ in range(1000):
        mu = rng.uniform(-5.0, 5.0)
        sigma = rng.uniform(1e-3, 3.0)
        best = rng.uniform(-5.0, 5.0)
        base = float(expected_improvement(
            np.array([mu]), np.array([sigma]), best)[0])
        up_mu = float(expected_improvement(
            np.array([mu + 0.1]), np.array([sigma]), best)[0])
        up_sigma = float(expected_improvement(
            np.array([mu]), np.array([sigma + 0.1]), best)[0])
        if up_mu < base - 1e-12 or up_sigma < base - 1e-12:
            mono_fail += 1

    ok = zero_sigma == 0.0 and at_best_err <= 1e-6 and mono_fail == 0
    verdict(5, ok,
            f"ei_at_zero_sigma={zero_sigma} ei_at_incumbent={at_best:.6f} "
            f"monotonicity_failures={mono_fail}/1000")


# ---------------------------------------------------------------------------
# 6. Rigid alignment from corresponded point sets
# ---------------------------------------------------------------------------

def test_criterion_6_rigid_fit():
    rng = np.random.default_rng(13)
    worst = 0.0
    dets = []
    for _ in range(100):
        t = rng.uniform(-50.0, 50.0, 3)
        angles = rng.uniform(-179.0, 179.0, 3)
        truth = make_transform(t[0], t[1], t[2], *angles)
        src = rng.uniform(-30.0, 30.0, (12, 3))
        fit = rigid_fit_svd(src, truth.apply(src))
        worst = max(worst,
                    float(np.max(np.abs(fit.rotation - truth.rotation))),
                    float(np.max(np.abs(fit.translation - truth.translation))))
        dets.append(float(np.linalg.det(fit.rotation)))

    src = rng.uniform(-10.0, 10.0, (15, 3))
    mirrored = src * np.array([-1.0, 1.0, 1.0])
    fit = rigid_fit_svd(src, mirrored)
    dets.append(float(np.linalg.det(fit.rotation)))

    det_err = max(abs(d - 1.0) for d in dets)
    ok = worst <= 1e-9 and det_err <= 1e-12
    verdict(6, ok, f"max_recovery_err={worst:.2e} max_det_err={det_err:.2e} "
                   f"(mirrored input included)")


# ---------------------------------------------------------------------------
# 7. Mesh closest-point queries vs brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_7_closest_point():
    def height(x, y):
        return 2.0 * np.sin(x / 5.0) * np.cos(y / 4.0) + 0.04 * x

    mesh = make_surface_mesh(0.0, 50.0, 0.0, 20.0, 2.0, height)
    assert mesh.faces.shape[0] == 500
    rng = np.random.default_rng(14)
    queries = rng.uniform([-5.0, -5.0, -10.0], [55.0, 25.0, 15.0], (1000, 3))
    dists = mesh.closest_points(queries)[3]
    worst = 0.0
    for q, d in zip(queries, dists):
        _, _, od = closest_point_brute(mesh.vertices, mesh.faces, q)
        worst = max(worst, abs(float(d) - od))
    ok = worst <= 1e-9
    verdict(7, ok, f"faces={mesh.faces.shape[0]} queries=1000 "
                   f"max_distance_diff={worst:.2e}")


# ---------------------------------------------------------------------------
# 8. Force/depth slope estimation vs least-squares oracle
# ---------------------------------------------------------------------------

def _column_set(depths, forces):
    ms = [ProbeMeasurement(position=np.array([0.0, 0.0, -d]),
                           force=float(f),
                           sensed_normal=np.array([0.0, 0.0, 1.0]))
          for d, f in zip(depths, forces)]
    ref = int(np.argmin(forces))
    cset = CompatibleSet(member_indices=tuple(range(len(ms))),
                         reference_index=ref, location=ms[ref].position[:2])
    return cset, ms


def test_criterion_8_stiffness_slope():
    depths = np.array([0.0, 0.3, 0.6, 0.9, 1.2])
    cset, ms = _column_set(depths, 0.7 + 2.2 * depths)
    exact_err = abs(estimate_stiffness(cset, ms).stiffness - 2.2)

    rng = np.random.default_rng(15)
    noisy_err = 0.0
    for _ in range(50):
        d = np.sort(rng.uniform(0.0, 3.0, 8))
        d[0] = 0.0
        f = np.abs(1.0 + 2.0 * d + rng.normal(0.0, 0.05, 8))
        cset, ms = _column_set(d, f)
        got = estimate_stiffness(cset, ms).stiffness
        ref = int(np.argmin(f))
        expected = slope_least_squares(np.abs(d - d[ref]), f)
        noisy_err = max(noisy_err, abs(got - expected))

    ok = exact_err <= 1e-12 and noisy_err <= 1e-12
    verdict(8, ok, f"exact_err={exact_err:.2e} noisy_vs_oracle={noisy_err:.2e}")


# ---------------------------------------------------------------------------
# 9. Byte-identical reruns
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    save_phantom(multimodal_phantom(), tmp_path / "phantom.json")
    outputs = []
    for name in ("out_a", "out_b"):
        doc = {
            "phantom": "phantom.json",
            "roi": {"xmin": 0.0, "xmax": 40.0, "ymin": 0.0, "ymax": 40.0,
                    "spacing": 2.0},
            "noise": {"position_sigma_mm": 0.3, "force_sigma_n": 0.1},
            "budget": 25,
            "strategy": "ei",
            "output_dir": name,
            "master_seed": 6,
        }
        cfg = tmp_path / f"config_{name}.json"
        cfg.write_text(json.dumps(doc, indent=2))
        assert main(["run", str(cfg)]) == 0
        outputs.append(tmp_path / name)

    mismatched = [f for f in ("report.json", "probe_log.csv",
                              "stiffness_map.csv")
                  if (outputs[0] / f).read_bytes() != (outputs[1] / f).read_bytes()]
    ok = not mismatched
    verdict(9, ok, "byte-identical report.json, probe_log.csv, stiffness_map.csv"
            if ok else f"differs: {mismatched}")
