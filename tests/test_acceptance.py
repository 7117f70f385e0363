"""Release acceptance suite.

Each test here checks one numbered release criterion end to end at its
stated tolerance and reports a one-line PASS/FAIL summary (with the
realized numbers and runtime) through the scoreboard in ``conftest``.

The heavy simulation suites are shared between criteria through
module-scoped fixtures.  A criterion's reported runtime charges the
full cost of every shared suite it consumes: that is what an isolated
re-run of just that criterion would pay, so no criterion looks cheaper
than it is.  Everything is seeded, so re-runs see identical numbers.
"""

from __future__ import annotations

import functools
import itertools
import time

import numpy as np
import pytest
from mpmath import mp
from scipy.optimize import linprog

from conftest import _SCOREBOARD, record_criterion
from robustcp.bounds import (
    build_region_table,
    gaussian_cdf_lower,
    gaussian_cdf_upper,
    gaussian_mean_lower,
    gaussian_mean_upper,
    sparse_cdf_lower,
    sparse_cdf_upper,
    sparse_mean_lower,
    sparse_mean_upper,
)
from robustcp.cli import main
from robustcp.experiments import (
    ExperimentConfig,
    TaskSpec,
    corrected_trial,
    evasion_trial,
    label_poison_trial,
    marginal_trial,
)
from robustcp.formats import (
    write_feature_bounds_csv,
    write_labels_csv,
    write_score_tensor,
)
from robustcp.poisoning import (
    brute_force_feature_threshold,
    brute_force_label_threshold,
    feature_poison_threshold,
    label_poison_threshold,
)
from robustcp.smoothing import BinGrid, substream, summarize_samples

mp.dps = 50

# ------------------------------------------------------------- scoreboard --


def _finish(number, elapsed, budget, checks, detail):
    """Record one criterion line and assert every check in it."""
    failed = [name for name, ok in checks.items() if not ok]
    if budget is not None and elapsed >= budget:
        failed.append(f"runtime {elapsed:.0f}s over budget {budget:.0f}s")
    stamp = f"[{elapsed:.1f}s < {budget:.0f}s]" if budget else f"[{elapsed:.1f}s]"
    line = f"{detail} {stamp}"
    if failed:
        line += "  FAILED: " + "; ".join(failed)
    record_criterion(number, not failed, line)
    assert not failed, f"criterion {number}: {line}"


def criterion(number):
    """Make sure a crash before ``_finish`` still lands on the scoreboard."""

    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if number not in _SCOREBOARD:
                    record_criterion(number, False, f"crashed: {exc!r}")
                raise

        return run

    return deco


# ---------------------------------------------------------- frozen regimes --

GAUSS_TASK = TaskSpec(
    kind="gaussian-mixture", n_classes=3, dim=4, separation=2.0, noise=1.0,
    task_seed=7, n_cal=100, n_test=20,
)
BINARY_TASK = TaskSpec(
    kind="binary-linear", n_classes=3, dim=64, strength=0.25,
    task_seed=7, n_cal=100, n_test=20,
)

# Continuous task smoothed at sigma = 0.5 and attacked at 0.25 sigma,
# 0.5 sigma, and sigma; the sigma is chosen so that perturbations of
# half a smoothing deviation visibly dent unprotected coverage.
GAUSS_SUITE = ExperimentConfig(
    kind="evasion", task=GAUSS_TASK, alpha=0.1, score_kind="tps", sigma=0.5,
    radii=(0.125, 0.25, 0.5), n_samples=10_000, attack_samples=256,
    n_trials=200, seed=11,
)
BINARY_SUITE = ExperimentConfig(
    kind="evasion", task=BINARY_TASK, alpha=0.1, score_kind="tps",
    p0=0.1, p1=0.1, flips=((2, 2),), n_samples=4000, attack_samples=256,
    n_trials=200, seed=13,
)
CORRECTED_SUITE = ExperimentConfig(
    kind="corrected", task=GAUSS_TASK, alpha=0.1, score_kind="tps", sigma=0.25,
    radii=(0.125,), budgets=(0, 1, 2), eta=0.01, n_samples=10_000,
    n_trials=200, seed=17,
)
LABEL_SUITE = ExperimentConfig(
    kind="label-poison", task=GAUSS_TASK, alpha=0.1, score_kind="tps",
    budgets=(0, 1, 2), n_trials=400, seed=19,
)
MARGINAL_SUITE = ExperimentConfig(
    kind="marginal",
    task=TaskSpec(
        kind="gaussian-mixture", n_classes=3, dim=4, separation=2.0,
        noise=1.0, task_seed=7, n_cal=100, n_test=200,
    ),
    alpha=0.1, n_trials=500, seed=23,
)


def _run_suite(config, trial_fn):
    t0 = time.perf_counter()
    results = [trial_fn(config, i) for i in range(config.n_trials)]
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def gaussian_suite():
    return _run_suite(GAUSS_SUITE, evasion_trial)


@pytest.fixture(scope="module")
def binary_suite():
    return _run_suite(BINARY_SUITE, evasion_trial)


@pytest.fixture(scope="module")
def corrected_suite():
    return _run_suite(CORRECTED_SUITE, corrected_trial)


@pytest.fixture(scope="module")
def label_suite():
    return _run_suite(LABEL_SUITE, label_poison_trial)


def _mean_of(results, metric, **match):
    values = [
        row[metric]
        for result in results
        for row in result.rows
        if all(row.get(key) == want for key, want in match.items())
    ]
    assert values, f"no rows matching {match}"
    return float(np.mean(values))


# -------------------------------------------------- 1: marginal coverage --


@criterion(1)
def test_criterion_1_marginal_coverage():
    t0 = time.perf_counter()
    results = [
        marginal_trial(MARGINAL_SUITE, i) for i in range(MARGINAL_SUITE.n_trials)
    ]
    coverage = _mean_of(results, "coverage", method="vanilla")
    target = 91.0 / 101.0
    _finish(
        1, time.perf_counter() - t0, 120.0,
        {"within 0.01 of 91/101": abs(coverage - target) <= 0.01},
        f"500-trial marginal coverage {coverage:.6f}, target {target:.6f} +/- 0.01",
    )


# ------------------------------------------- 2: closed-form bound checks --


def _phi(z: float) -> float:
    return float((mp.erf(mp.mpf(z) / mp.sqrt(2)) + 1) / 2)


def _phi_inv(p: float) -> float:
    return float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1))


@criterion(2)
def test_criterion_2_gaussian_bound_oracle():
    t0 = time.perf_counter()
    # High-precision reference for Phi(Phi^{-1}(p) +/- r/sigma).
    err_phi1 = max(
        abs(gaussian_mean_upper(0.5, s, s) - _phi(1.0)) for s in (0.1, 0.25, 1.0, 2.0)
    )
    cases = [
        (0.5, 1.0, 1.0), (0.5, 0.25, 0.25), (0.1, 0.5, 0.25),
        (0.9, 0.125, 0.25), (0.731, 0.3, 0.17), (1e-4, 2.0, 0.5),
        (0.9999, 2.0, 0.5),
    ]
    err_oracle = 0.0
    for p, radius, sigma in cases:
        err_oracle = max(
            err_oracle,
            abs(gaussian_mean_upper(p, radius, sigma) - _phi(_phi_inv(p) + radius / sigma)),
            abs(gaussian_mean_lower(p, radius, sigma) - _phi(_phi_inv(p) - radius / sigma)),
        )
    # Zero radius must be the exact identity, bit for bit.
    exact = all(
        gaussian_mean_upper(p, 0.0, 0.3) == p and gaussian_mean_lower(p, 0.0, 0.3) == p
        for p in (0.0, 1e-6, 0.1, 0.5, 0.9, 1.0)
    )
    # At zero radius the CDF variants must collapse to the classic
    # stepwise-envelope integral of the binned CDF.
    rng = substream(3, "acceptance-anderson")
    dist = summarize_samples(rng.beta(2.0, 5.0, 300), BinGrid.uniform(51))
    edges = dist.grid.edges
    widths = np.diff(edges)
    envelope_up = float(np.sum(widths * (1.0 - np.concatenate(([0.0], dist.cdf)))))
    envelope_lo = float(np.sum(widths * (1.0 - np.concatenate((dist.cdf, [1.0])))))
    table0 = build_region_table(0, 0, 0.1, 0.1)
    err_cdf = max(
        abs(gaussian_cdf_upper(dist, 0.0, 0.25) - envelope_up),
        abs(gaussian_cdf_lower(dist, 0.0, 0.25) - envelope_lo),
        abs(sparse_cdf_upper(dist, table0) - envelope_up),
        abs(sparse_cdf_lower(dist, table0) - envelope_lo),
    )
    _finish(
        2, time.perf_counter() - t0, 30.0,
        {
            "Phi(1) within 1e-9": err_phi1 <= 1e-9,
            "oracle cases within 1e-9": err_oracle <= 1e-9,
            "r=0 mean identity exact": exact,
            "r=0 cdf envelope within 1e-12": err_cdf <= 1e-12,
        },
        f"Phi(1) err {err_phi1:.2e}, oracle err {err_oracle:.2e}, "
        f"r=0 exact, r=0 cdf envelope err {err_cdf:.2e}",
    )


# -------------------------------------------- 3: region-table enumeration --


def _enumerated_region_masses(additions, deletions, p0, p1):
    """Brute-force the region masses by walking all noise outcomes.

    Outcomes are restricted to the coordinates where the clean and
    perturbed points differ; the region index counts coordinates that
    agree with the perturbed point after noise.
    """
    size = additions + deletions
    clean = np.zeros(size + 1)
    adv = np.zeros(size + 1)
    for bits in itertools.product((0, 1), repeat=size):
        pr_clean = 1.0
        pr_adv = 1.0
        agree = 0
        for j, bit in enumerate(bits):
            if j < additions:  # clean bit 0, perturbed bit 1
                pr_clean *= p0 if bit else 1.0 - p0
                pr_adv *= (1.0 - p1) if bit else p1
                agree += bit
            else:  # clean bit 1, perturbed bit 0
                pr_clean *= (1.0 - p1) if bit else p1
                pr_adv *= p0 if bit else (1.0 - p0)
                agree += 1 - bit
        clean[agree] += pr_clean
        adv[agree] += pr_adv
    return clean, adv


@criterion(3)
def test_criterion_3_region_table_vs_enumeration():
    t0 = time.perf_counter()
    max_err = 0.0
    tables = 0
    for p0, p1 in ((0.2, 0.2), (0.01, 0.6)):
        for additions in range(11):
            for deletions in range(11 - additions):
                table = build_region_table(additions, deletions, p0, p1)
                clean, adv = _enumerated_region_masses(additions, deletions, p0, p1)
                assert table.clean_mass.size == clean.size
                max_err = max(
                    max_err,
                    float(np.max(np.abs(table.clean_mass - clean))),
                    float(np.max(np.abs(table.adv_mass - adv))),
                )
                tables += 1
    _finish(
        3, time.perf_counter() - t0, 60.0,
        {"max abs error <= 1e-12": max_err <= 1e-12},
        f"{tables} tables (all flip radii summing to <= 10, two noise "
        f"settings), max abs mass error {max_err:.2e}",
    )


# ------------------------------------------------ 4: sparse bounds vs LP --


def _lp_transfer(budget, table, maximize):
    """Generic LP for the mass-transfer extremes the greedy solver computes."""
    sign = -1.0 if maximize else 1.0
    result = linprog(
        sign * table.adv_mass,
        A_eq=table.clean_mass[None, :],
        b_eq=[budget],
        bounds=[(0.0, 1.0)] * table.clean_mass.size,
        method="highs",
    )
    assert result.status == 0, result.message
    return float(sign * result.fun)


@criterion(4)
def test_criterion_4_sparse_bounds_vs_lp():
    t0 = time.perf_counter()
    rng = substream(29, "acceptance-sparse-lp")
    grid = BinGrid.uniform(11)
    edges = grid.edges
    max_err = 0.0
    max_compose = 0.0
    for _ in range(500):
        additions = int(rng.integers(0, 5))
        deletions = int(rng.integers(0, 5 - additions))
        p0 = float(rng.uniform(0.01, 0.6))
        p1 = float(rng.uniform(0.01, 0.6))
        table = build_region_table(additions, deletions, p0, p1)
        p = float(rng.uniform())
        max_err = max(
            max_err,
            abs(sparse_mean_upper(p, table) - _lp_transfer(p, table, True)),
            abs(sparse_mean_lower(p, table) - _lp_transfer(p, table, False)),
        )
        dist = summarize_samples(rng.uniform(0.0, 1.0, 40), grid)
        per_edge_min = np.array([sparse_mean_lower(c, table) for c in dist.cdf])
        per_edge_max = np.array([sparse_mean_upper(c, table) for c in dist.cdf])
        for c, lo, hi in zip(dist.cdf, per_edge_min, per_edge_max):
            max_err = max(
                max_err,
                abs(lo - _lp_transfer(c, table, False)),
                abs(hi - _lp_transfer(c, table, True)),
            )
        # The CDF bounds must be exactly the partial-summation composition
        # of those per-edge solutions.
        want_upper = float(edges[-1] - np.sum(per_edge_min * (edges[2:] - edges[1:-1])))
        want_lower = float(edges[-2] - np.sum(per_edge_max * (edges[1:-1] - edges[:-2])))
        max_compose = max(
            max_compose,
            abs(sparse_cdf_upper(dist, table) - want_upper),
            abs(sparse_cdf_lower(dist, table) - want_lower),
        )
    _finish(
        4, time.perf_counter() - t0, 120.0,
        {
            "mean and per-bin transfers within 1e-9 of LP": max_err <= 1e-9,
            "cdf bound composes per-bin solutions (1e-12)": max_compose <= 1e-12,
        },
        f"500 instances, 10 LP solves each: max err vs LP {max_err:.2e}, "
        f"max composition err {max_compose:.2e}",
    )


# --------------------------------------- 5: poisoning thresholds (exact) --


@criterion(5)
def test_criterion_5_poisoning_vs_brute_force():
    t0 = time.perf_counter()
    rng = substream(31, "acceptance-poison-oracle")
    feature_bad = 0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        scores = rng.uniform(0.0, 1.0, n)
        lower = np.clip(scores - rng.uniform(0.0, 0.5, n), 0.0, None)
        budget = int(rng.integers(0, 4))
        alpha = float(rng.uniform(0.05, 0.6))
        got = feature_poison_threshold(scores, lower, budget, alpha).threshold
        if got != brute_force_feature_threshold(scores, lower, budget, alpha):
            feature_bad += 1
    label_bad = 0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        n_classes = int(rng.integers(2, 5))
        matrix = rng.uniform(0.0, 1.0, (n, n_classes))
        labels = rng.integers(0, n_classes, n)
        budget = int(rng.integers(0, 4))
        alpha = float(rng.uniform(0.05, 0.6))
        got = label_poison_threshold(matrix, labels, budget, alpha).threshold
        if got != brute_force_label_threshold(matrix, labels, budget, alpha):
            label_bad += 1
    _finish(
        5, time.perf_counter() - t0, 120.0,
        {
            "feature thresholds exact": feature_bad == 0,
            "label thresholds exact": label_bad == 0,
        },
        f"1000 feature + 1000 label instances vs exhaustive search: "
        f"{feature_bad} + {label_bad} mismatches",
    )


# ----------------------------------------------- 6: evasion under attack --


@criterion(6)
def test_criterion_6_attacked_coverage(gaussian_suite, binary_suite):
    t0 = time.perf_counter()
    gauss, gauss_s = gaussian_suite
    binary, binary_s = binary_suite
    half_sigma = 0.5 * GAUSS_SUITE.sigma
    gv = _mean_of(gauss, "coverage", method="vanilla", radius=half_sigma)
    gm = _mean_of(gauss, "coverage", method="mean-bound", radius=half_sigma)
    gc = _mean_of(gauss, "coverage", method="cdf-bound", radius=half_sigma)
    bv = _mean_of(binary, "coverage", method="vanilla", radius=4.0)
    bm = _mean_of(binary, "coverage", method="mean-bound", radius=4.0)
    bc = _mean_of(binary, "coverage", method="cdf-bound", radius=4.0)
    _finish(
        6, time.perf_counter() - t0 + gauss_s + binary_s, 600.0,
        {
            "continuous attacked vanilla <= 0.88": gv <= 0.88,
            "continuous certified >= 0.89": gm >= 0.89 and gc >= 0.89,
            "binary attacked vanilla <= 0.88": bv <= 0.88,
            "binary certified >= 0.89": bm >= 0.89 and bc >= 0.89,
        },
        f"200 trials each: continuous r=0.5sigma vanilla {gv:.4f}, "
        f"certified {gm:.4f}/{gc:.4f}; binary (2,2) vanilla {bv:.4f}, "
        f"certified {bm:.4f}/{bc:.4f}",
    )


# --------------------------------------- 7: cdf route dominates mean route --


@criterion(7)
def test_criterion_7_cdf_dominates_mean(gaussian_suite):
    t0 = time.perf_counter()
    gauss, gauss_s = gaussian_suite
    size_pairs = []
    for radius in GAUSS_SUITE.radii:
        mean_size = _mean_of(gauss, "size", method="mean-bound", radius=radius)
        cdf_size = _mean_of(gauss, "size", method="cdf-bound", radius=radius)
        size_pairs.append((radius, cdf_size, mean_size))
    size_ok = all(c <= m for _, c, m in size_pairs)
    beta_checked = 0
    beta_ok = True
    for result in gauss:
        betas = {}
        for row in result.rows:
            if "beta" in row:
                betas[(row["radius"], row["method"])] = row["beta"]
        for radius in GAUSS_SUITE.radii:
            beta_checked += 1
            if betas[(radius, "cdf-bound")] < betas[(radius, "mean-bound")]:
                beta_ok = False
    rendered = ", ".join(f"r={r:g}: {c:.3f}<={m:.3f}" for r, c, m in size_pairs)
    _finish(
        7, time.perf_counter() - t0 + gauss_s, 600.0,
        {
            "mean set size: cdf <= mean at every radius": size_ok,
            "coverage floor beta: cdf >= mean on every trial": beta_ok,
        },
        f"sizes {rendered}; beta dominance on {beta_checked} trial-radius pairs",
    )


# --------------------------------------- 8: finite-sample corrected runs --


@criterion(8)
def test_criterion_8_corrected_pipelines(corrected_suite):
    t0 = time.perf_counter()
    corrected, corrected_s = corrected_suite
    sets_cov = _mean_of(corrected, "coverage", method="corrected-sets")
    thr_cov = {
        k: _mean_of(corrected, "coverage", method="corrected-threshold", budget=k)
        for k in CORRECTED_SUITE.budgets
    }
    dominated = sum(
        result.thresholds[f"corrected-k{k}"] <= result.thresholds[f"uncorrected-k{k}"]
        for result in corrected
        for k in CORRECTED_SUITE.budgets
    )
    total = len(corrected) * len(CORRECTED_SUITE.budgets)
    # Every trial asserts its ledgers internally (calibration side plus
    # one per test point), so 200 completed trials certify the error
    # budget was respected throughout.
    _finish(
        8, time.perf_counter() - t0 + corrected_s, 900.0,
        {
            "corrected sets coverage >= 0.895": sets_cov >= 0.895,
            "corrected thresholds coverage >= 0.895": min(thr_cov.values()) >= 0.895,
            "corrected <= uncorrected threshold on every instance": dominated == total,
        },
        f"200 trials at eta=0.01, 10k draws: sets {sets_cov:.4f}, threshold "
        f"coverage min {min(thr_cov.values()):.4f}, dominance {dominated}/{total}, "
        f"ledgers within eta (asserted per trial)",
    )


# ------------------------------------------------- 9: label poisoning --


@criterion(9)
def test_criterion_9_label_poisoning(label_suite):
    t0 = time.perf_counter()
    label, label_s = label_suite
    budgets = LABEL_SUITE.budgets
    vanilla = [_mean_of(label, "coverage", method="vanilla", budget=k) for k in budgets]
    robust = [_mean_of(label, "coverage", method="robust", budget=k) for k in budgets]
    sizes = [_mean_of(label, "size", method="robust", budget=k) for k in budgets]
    floor = 1.0 - LABEL_SUITE.alpha
    _finish(
        9, time.perf_counter() - t0 + label_s, 300.0,
        {
            "robust coverage >= 1 - alpha at every budget": min(robust) >= floor,
            "vanilla coverage strictly decreasing": vanilla[0] > vanilla[1] > vanilla[2],
            "robust set size nondecreasing": sizes[0] <= sizes[1] <= sizes[2],
        },
        f"400 trials, budgets {budgets}: vanilla {[f'{v:.4f}' for v in vanilla]}, "
        f"robust {[f'{r:.4f}' for r in robust]}, sizes {[f'{s:.3f}' for s in sizes]}",
    )


# --------------------------------------------- 10: byte-level determinism --


def _run_cli(*argv) -> int:
    return main(list(argv))


def _snapshot(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@criterion(10)
def test_criterion_10_reruns_are_byte_identical(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.setenv("ROBUSTCP_WORKERS", "1")
    rng = substream(42, "acceptance-cli")
    cal = rng.uniform(0.0, 1.0, (20, 3, 60))
    test = rng.uniform(0.0, 1.0, (6, 3, 60))
    cal_labels = rng.integers(0, 3, 20)
    test_labels = rng.integers(0, 3, 6)
    scores_f = rng.uniform(0.0, 1.0, 10)
    lower_f = np.clip(scores_f - rng.uniform(0.0, 0.4, 10), 0.0, None)
    write_score_tensor(tmp_path / "cal.csv", cal)
    write_score_tensor(tmp_path / "test.csv", test)
    write_labels_csv(tmp_path / "cal-labels.csv", cal_labels)
    write_labels_csv(tmp_path / "test-labels.csv", test_labels)
    write_feature_bounds_csv(tmp_path / "bounds.csv", scores_f, lower_f)

    identical = []
    files = 0
    for round_dir in ("first", "second"):
        base = tmp_path / round_dir
        assert _run_cli(
            "calibrate", "--scores", str(tmp_path / "cal.csv"),
            "--labels", str(tmp_path / "cal-labels.csv"),
            "--out", str(base / "cal"),
            "--set", "sigma=0.25", "--set", "radius=0.125",
        ) == 0
        assert _run_cli(
            "predict", "--artifact", str(base / "cal" / "calibration.json"),
            "--scores", str(tmp_path / "test.csv"),
            "--labels", str(tmp_path / "test-labels.csv"),
            "--out", str(base / "pred"),
            "--set", "sigma=0.25", "--set", "radius=0.125",
        ) == 0
        assert _run_cli(
            "certify-poisoning", "--input", str(tmp_path / "bounds.csv"),
            "--out", str(base / "cert"),
            "--set", "poison_kind=feature", "--set", "poison_budget=2",
        ) == 0
        assert _run_cli(
            "simulate", "--out", str(base / "sim"),
            "--set", "experiment=marginal", "--set", "n_trials=3",
            "--set", "n_cal=50", "--set", "n_test=40", "--set", "seed=5",
        ) == 0
        identical.append(_snapshot(base))
        files = len(identical[-1])
    _finish(
        10, time.perf_counter() - t0, None,
        {"re-runs byte-identical": identical[0] == identical[1]},
        f"calibrate + predict + certify-poisoning + simulate re-run: "
        f"{files} result files compared byte for byte",
    )
