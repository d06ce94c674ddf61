"""Ball averages, bias-expansion fits, and excess-risk experiments."""

from dataclasses import dataclass

import numpy as np
import pytest

from msknn.cli import main
from msknn.errors import NumericalError
from msknn.theory import (
    EXPERIMENT_METHODS,
    RadialPolynomialEta,
    SyntheticProblem,
    UniformBall,
    UniformBox,
    analytic_b1,
    eta_infinity,
    excess_risk_experiment,
    fit_bias_expansion,
    quadratic_problem_1d,
    quadratic_problem_2d,
    smooth_problem_2d,
    weight_profile_report,
)
from msknn.theory import _bayes_error_numeric


class TestEtaInfinity:
    def test_constant_eta(self):
        problem = SyntheticProblem(
            UniformBox((-1.0, -1.0), (1.0, 1.0)),
            RadialPolynomialEta((0.0, 0.0), 0.7, ()),
            1.0,
            2.0,
        )
        for r in (0.05, 0.4):
            assert eta_infinity(problem, [0.1, -0.2], r) == pytest.approx(0.7, abs=1e-12)

    def test_1d_closed_form(self):
        problem = quadratic_problem_1d()
        for r in (0.05, 0.1, 0.2, 0.3):
            got = eta_infinity(problem, [0.0], r)
            assert got == pytest.approx(0.5 + r * r / 3.0, abs=1e-9)

    def test_2d_closed_form(self):
        problem = quadratic_problem_2d()
        for r in (0.1, 0.3):
            got = eta_infinity(problem, [0.0, 0.0], r)
            assert got == pytest.approx(0.5 + r * r / 8.0, abs=1e-9)

    def test_antisymmetric_term_cancels(self):
        class CubicEta:
            def value(self, X):
                x = np.atleast_2d(X)[:, 0]
                return 0.5 + x**2 + 0.4 * x**3

        problem = SyntheticProblem(UniformBox((-1.0,), (1.0,)), CubicEta(), 1.0, 2.0)
        got = eta_infinity(problem, [0.0], 0.2)
        assert got == pytest.approx(0.5 + 0.04 / 3.0, abs=1e-10)

    def test_small_radius_limit(self):
        for problem, x0 in [
            (quadratic_problem_1d(), [0.3]),
            (quadratic_problem_2d(), [0.2, -0.1]),
            (smooth_problem_2d(), [0.0, 0.0]),
        ]:
            eta0 = float(problem.eta.value(np.atleast_2d(x0))[0])
            assert abs(eta_infinity(problem, x0, 1e-3) - eta0) <= 1e-4

    def test_ball_outside_support(self):
        problem = quadratic_problem_2d()
        with pytest.raises(NumericalError):
            eta_infinity(problem, [10.0, 10.0], 0.1)

    def test_uniform_ball_support(self):
        problem = SyntheticProblem(
            UniformBall((0.0, 0.0), 2.0),
            RadialPolynomialEta((0.0, 0.0), 0.5, (0.25,)),
            1.0,
            2.0,
        )
        got = eta_infinity(problem, [0.0, 0.0], 0.2)
        assert got == pytest.approx(0.5 + 0.04 / 8.0, abs=1e-9)

    def test_qmc_path_above_3d(self):
        d = 5
        problem = SyntheticProblem(
            UniformBox((-1.0,) * d, (1.0,) * d),
            RadialPolynomialEta((0.0,) * d, 0.5, (0.2,)),
            1.0,
            2.0,
        )
        # mean of ||x||^2 over a d-ball of radius r is r^2 d / (d + 2)
        r = 0.3
        expected = 0.5 + 0.2 * r * r * d / (d + 2)
        got = eta_infinity(problem, [0.0] * d, r, budget=2**15)
        assert got == pytest.approx(expected, abs=2e-4)


class TestBiasExpansion:
    def test_1d_coefficient(self):
        problem = quadratic_problem_1d()
        coef = fit_bias_expansion(problem, [0.0], np.linspace(0.05, 0.3, 8), C=1)
        assert coef[0] == pytest.approx(0.5, abs=1e-4)
        assert coef[1] == pytest.approx(1.0 / 3.0, rel=0.05)

    def test_2d_coefficient(self):
        problem = quadratic_problem_2d()
        coef = fit_bias_expansion(problem, [0.0, 0.0], np.linspace(0.05, 0.3, 8), C=1)
        assert coef[0] == pytest.approx(0.5, abs=1e-4)
        assert coef[1] == pytest.approx(1.0 / 8.0, rel=0.05)

    def test_constant_eta_flat_fit(self):
        problem = SyntheticProblem(
            UniformBox((-1.0,), (1.0,)), RadialPolynomialEta((0.0,), 0.42, ()), 1.0, 2.0
        )
        coef = fit_bias_expansion(problem, [0.0], np.linspace(0.05, 0.3, 6), C=2)
        assert coef[0] == pytest.approx(0.42, abs=1e-10)
        np.testing.assert_allclose(coef[1:], 0.0, atol=1e-8)

    def test_b0_matches_eta_everywhere(self):
        for problem, x0 in [
            (quadratic_problem_1d(), [0.2]),
            (smooth_problem_2d(), [0.3, -0.2]),
        ]:
            coef = fit_bias_expansion(problem, x0, np.linspace(0.02, 0.15, 6), C=1)
            eta0 = float(problem.eta.value(np.atleast_2d(x0))[0])
            assert coef[0] == pytest.approx(eta0, abs=1e-4)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            fit_bias_expansion(quadratic_problem_1d(), [0.0], [0.1, 0.1], C=1)


class TestAnalyticB1:
    def test_1d(self):
        assert analytic_b1(quadratic_problem_1d(), [0.0]) == pytest.approx(1.0 / 3.0)

    def test_2d(self):
        assert analytic_b1(quadratic_problem_2d(), [0.0, 0.0]) == pytest.approx(1.0 / 8.0)

    def test_linear_eta_is_zero(self):
        class LinearEta:
            def value(self, X):
                return 0.5 + 0.1 * np.atleast_2d(X)[:, 0]

            def gradient(self, x):
                return np.array([0.1, 0.0])

            def laplacian(self, x):
                return 0.0

        problem = SyntheticProblem(
            UniformBox((-1.0, -1.0), (1.0, 1.0)), LinearEta(), 1.0, 2.0
        )
        assert analytic_b1(problem, [0.0, 0.0]) == 0.0

    def test_missing_laplacian(self):
        class Opaque:
            def value(self, X):
                return np.full(len(np.atleast_2d(X)), 0.5)

        problem = SyntheticProblem(UniformBox((-1.0,), (1.0,)), Opaque(), 1.0, 2.0)
        with pytest.raises(NumericalError):
            analytic_b1(problem, [0.0])

    def test_matches_quadrature_fit(self):
        for problem in (quadratic_problem_1d(), quadratic_problem_2d(), smooth_problem_2d()):
            x0 = np.zeros(problem.d)
            coef = fit_bias_expansion(problem, x0, np.linspace(0.05, 0.25, 8), C=2)
            b1 = analytic_b1(problem, x0)
            assert coef[1] == pytest.approx(b1, rel=0.05)


class TestBayesRisk:
    def test_1d_analytic_vs_numeric(self):
        problem = quadratic_problem_1d()
        assert _bayes_error_numeric(problem, 100_000) == pytest.approx(
            problem.bayes_risk, abs=1e-6
        )

    def test_2d_analytic_vs_numeric(self):
        for problem in (quadratic_problem_2d(), smooth_problem_2d()):
            assert _bayes_error_numeric(problem, 200_000) == pytest.approx(
                problem.bayes_risk, abs=1e-5
            )


class TestExcessRisk:
    def test_bayes_method_statistically_zero(self):
        table = excess_risk_experiment(
            smooth_problem_2d(), ["bayes"], [256], reps=40, n_test=128, seed=2
        )
        mean, se = table.mean_excess[0, 0], table.stderr[0, 0]
        assert abs(mean) <= 3 * se

    def test_msknn_not_worse_and_means_decay(self):
        table = excess_risk_experiment(
            smooth_problem_2d(),
            ["unweighted", "msknn_radius"],
            [512, 2048],
            reps=30,
            n_test=128,
            seed=3,
            C=2,
        )
        uw = table.mean_excess[0]
        ms = table.mean_excess[1]
        se = table.stderr
        # consistency: means do not increase beyond noise
        assert uw[1] <= uw[0] + 2 * (se[0, 0] + se[0, 1])
        assert ms[1] <= ms[0] + 2 * (se[1, 0] + se[1, 1])
        # extrapolation helps at the larger n on this smooth problem
        assert ms[1] <= uw[1] + 2 * (se[0, 1] + se[1, 1])

    def test_unweighted_slope_bracket(self):
        # k = floor(n^{4/(4+d)}) without the benchmark's V multiple; the V
        # multiple keeps desk-scale n far from the asymptotic regime
        table = excess_risk_experiment(
            smooth_problem_2d(),
            ["unweighted"],
            [256, 1024, 4096],
            reps=30,
            n_test=128,
            seed=4,
            baseline_k_factor=1,
        )
        slope, _ = table.slopes["unweighted"]
        assert -0.9 < slope < -0.2

    def test_ratio_k_rule_runs(self):
        table = excess_risk_experiment(
            smooth_problem_2d(),
            ["msknn_radius"],
            [256],
            reps=5,
            n_test=64,
            seed=5,
            C=1,
            k_rule="ratio",
            ell=(1.0, 1.3, 1.6, 1.9, 2.2),
        )
        assert np.isfinite(table.mean_excess).all()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            excess_risk_experiment(smooth_problem_2d(), ["nope"], [64], 2, 8)

    def test_paired_seeds_share_draws(self):
        a = excess_risk_experiment(
            smooth_problem_2d(), ["bayes"], [128], reps=6, n_test=32, seed=7
        )
        b = excess_risk_experiment(
            smooth_problem_2d(), ["bayes", "unweighted"], [128], reps=6, n_test=32, seed=7
        )
        np.testing.assert_array_equal(a.mean_excess[0], b.mean_excess[0])


# per_rep of the pinned config below, as float.hex, in (method, n, rep) order
PINNED_PER_REP = {
    ("arithmetic", 1e-4): (
        "0x1.027b090b9f9d8p-4", "0x1.d87002d4e7750p-5", "0x1.3871b33e01c70p-4",
        "0x1.5558ed0fbaab0p-5", "0x1.961243f136230p-5", "0x1.c988aa3730000p-5",
        "0x1.e6c0bf9bbf660p-7", "0x1.03bbc79334af0p-5", "0x1.908c9fc6935b0p-5",
        "0x1.66f2eedd7d300p-5", "0x1.0043c65bfc6a0p-6", "0x1.5604bd1ab7378p-5",
        "0x1.8415ce12f8460p-5", "0x1.6199598822720p-5", "0x1.8b78ca7603e40p-7",
        "0x1.261c92bb04cf0p-5", "0x1.6a863de0735a0p-5", "0x1.7f3ffba66f968p-5",
        "0x1.0c3005aa7b400p-7", "0x1.1a82e97d52df0p-5",
    ),
    ("arithmetic", 0.0): (
        "0x1.027b090b9f9d8p-4", "0x1.d87002d4e7750p-5", "0x1.3871b33e01c70p-4",
        "0x1.5558ed0fbaab0p-5", "0x1.961243f136230p-5", "0x1.c988aa3730000p-5",
        "0x1.e6c0bf9bbf660p-7", "0x1.03bbc79334af0p-5", "0x1.908c9fc6935b0p-5",
        "0x1.66f2eedd7d300p-5", "0x1.0043c65bfc6a0p-6", "0x1.5604bd1ab7378p-5",
        "0x1.8415ce12f8460p-5", "0x1.6199598822720p-5", "0x1.8b78ca7603e40p-7",
        "0x1.261c92bb04cf0p-5", "0x1.6a863de0735a0p-5", "0x1.7f3ffba66f968p-5",
        "0x1.0c3005aa7b400p-7", "0x1.1a82e97d52df0p-5",
    ),
    ("ratio", 1e-4): (
        "0x1.027b090b9f9d8p-4", "0x1.d87002d4e7750p-5", "0x1.3871b33e01c70p-4",
        "0x1.5558ed0fbaab0p-5", "0x1.961243f136230p-5", "0x1.c988aa3730000p-5",
        "0x1.e6c0bf9bbf660p-7", "0x1.03bbc79334af0p-5", "0x1.908c9fc6935b0p-5",
        "0x1.66f2eedd7d300p-5", "0x1.0043c65bfc6a0p-6", "0x1.5604bd1ab7378p-5",
        "0x1.0bffca15b72d0p-4", "0x1.a9d5edd2516a0p-5", "0x1.0d4a1b016ab30p-6",
        "0x1.7301299b8ef78p-5", "0x1.0f2516dff25a0p-4", "0x1.8a711c0fa7f28p-5",
        "0x1.b3ef4df750540p-7", "0x1.7bd368732e820p-5",
    ),
    ("ratio", 0.0): (
        "0x1.027b090b9f9d8p-4", "0x1.d87002d4e7750p-5", "0x1.3871b33e01c70p-4",
        "0x1.5558ed0fbaab0p-5", "0x1.961243f136230p-5", "0x1.c988aa3730000p-5",
        "0x1.e6c0bf9bbf660p-7", "0x1.03bbc79334af0p-5", "0x1.908c9fc6935b0p-5",
        "0x1.66f2eedd7d300p-5", "0x1.0043c65bfc6a0p-6", "0x1.5604bd1ab7378p-5",
        "0x1.0bffca15b72d0p-4", "0x1.a9d5edd2516a0p-5", "0x1.0d4a1b016ab30p-6",
        "0x1.7301299b8ef78p-5", "0x1.0f2516dff25a0p-4", "0x1.8a711c0fa7f28p-5",
        "0x1.b3ef4df750540p-7", "0x1.7bd368732e820p-5",
    ),
}


@dataclass(frozen=True)
class GridBox(UniformBox):
    """Uniform draws rounded to the 3 x 3 integer grid: duplicate points, tied radii."""

    def sample(self, rng, n):
        return np.round(super().sample(rng, n))


class TestRatesLabOutput:
    @pytest.mark.parametrize("k_rule, lam", list(PINNED_PER_REP))
    def test_per_rep_pinned(self, k_rule, lam):
        # n = 64 takes the k_max = n search path, n = 128 the pruned one
        table = excess_risk_experiment(
            smooth_problem_2d(),
            EXPERIMENT_METHODS[1:],
            (64, 128),
            reps=2,
            n_test=64,
            seed=7,
            lam=lam,
            k_rule=k_rule,
        )
        got = tuple(v.hex() for v in table.per_rep.ravel().tolist())
        assert got == PINNED_PER_REP[k_rule, lam]

    @pytest.mark.parametrize("lam", [0.0, 1e-4])
    def test_rank_deficient_queries_counted(self, lam):
        problem = SyntheticProblem(
            GridBox((-1.0, -1.0), (1.0, 1.0)), smooth_problem_2d().eta, 1.0, 4.0, bayes_risk=0.0
        )
        table = excess_risk_experiment(
            problem, ["unweighted", "msknn_radius", "msknn_logk"], (256, 512), reps=2, n_test=30,
            seed=1, C=2, lam=lam,
        )
        assert set(table.rank_deficient) == {"msknn_radius", "msknn_logk"}
        assert table.n_queries == 2 * 2 * 30
        # fewer than C + 1 distinct radii make the r^2 design singular; log k never is
        assert 0 < table.rank_deficient["msknn_radius"] <= table.n_queries
        assert table.rank_deficient["msknn_logk"] == 0

    def test_cli_prints_rank_deficiency_counts(self, capsys):
        argv = ["rates", "--n-grid", "64,96", "--reps", "2", "--n-test", "8", "--lambda", "0",
                "--methods", "bayes,unweighted,msknn_radius,msknn_logk"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "# msknn_radius: 0 of 32 queries had a rank-deficient design",
            "# msknn_logk: 0 of 32 queries had a rank-deficient design",
        ]
        assert captured.out.startswith("method,n,mean_excess,stderr,slope,slope_stderr\n")


class TestExperimentConfig:
    def test_roundtrip(self, tmp_path):
        from msknn.theory import load_experiment_config, save_experiment_config

        path = tmp_path / "exp.cfg"
        save_experiment_config(
            path, problem="smooth-2d", methods="bayes,unweighted",
            n_grid="128,256", reps=5, n_test=16, seed=3, lam=1e-4, ell=None,
        )
        back = load_experiment_config(path)
        assert back["problem"] == "smooth-2d"
        assert back["reps"] == 5
        assert back["lam"] == 1e-4
        assert "ell" not in back

    def test_rejects_unknown_keys(self, tmp_path):
        from msknn.theory import load_experiment_config, save_experiment_config

        with pytest.raises(ValueError):
            save_experiment_config(tmp_path / "x.cfg", bogus=1)
        p = tmp_path / "y.cfg"
        p.write_text("nonsense=3\n")
        with pytest.raises(ValueError):
            load_experiment_config(p)


class TestWeightProfile:
    def test_fig_parameters(self):
        rows = weight_profile_report(1000, 10, 100, 5, 2)
        by_scheme = {}
        for scheme, i, w in rows:
            by_scheme.setdefault(scheme, []).append((i, w))
        assert set(by_scheme) == {"samworth_nonneg", "samworth_real", "msknn_implicit"}
        for scheme, pairs in by_scheme.items():
            idx = [i for i, _ in pairs]
            ws = np.array([w for _, w in pairs])
            assert idx == list(range(1, 101))
            assert abs(ws.sum() - 1.0) <= 1e-6

    def test_msknn_profile_structure(self):
        rows = weight_profile_report(1000, 10, 100, 5, 2)
        ws = np.array([w for scheme, _, w in rows if scheme == "msknn_implicit"])
        # piecewise constant with V = 5 pieces, steps only at the scale edges
        blocks = [ws[0:20], ws[20:40], ws[40:60], ws[60:80], ws[80:100]]
        for block in blocks:
            np.testing.assert_array_equal(block, block[0])
        assert len({b[0] for b in blocks}) == 5
        assert abs(ws[-1]) < abs(ws[0])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            weight_profile_report(100, 4, 200, 5, 2)
