import hashlib

import numpy as np
import pytest

from wassmdp import learner, lp
from wassmdp.learner import (
    FitConfig,
    KL_LOSS,
    LossKind,
    ModelParams,
    RankLimitedModelParams,
    TrainingDivergedError,
    WASSERSTEIN_LOSS,
    aggregate_loss,
    compare_losses,
    fit_model,
    loss_kind_spec,
    parse_loss_kind,
    vaml_loss_kind,
)
from wassmdp.mdp import FiniteMdp, generate_lipschitz_mdp
from wassmdp.metric import MetricSpace
from wassmdp.suites import cell_rng
from wassmdp.transport import Distribution, wasserstein_primal
from wassmdp.vaml import ContractionPreconditionError, value_lipschitz_bound, verify_equivalence


def small_mdp(seed=0, n=4, m=1, gamma=0.9, smoothing=0.5):
    return generate_lipschitz_mdp(n, m, gamma, smoothing, seed=seed)


class TestLossKind:
    def test_parse_round_trip(self):
        for text in ("kl", "wasserstein", "vaml:2.5"):
            assert loss_kind_spec(parse_loss_kind(text)) == text
        assert parse_loss_kind("vaml").c is None
        with pytest.raises(ValueError):
            parse_loss_kind("kl:1")
        with pytest.raises(ValueError):
            parse_loss_kind("hellinger")
        with pytest.raises(ValueError):
            LossKind("vaml", -1.0)


class TestModels:
    def test_full_rank_rows_are_distributions(self):
        rng = cell_rng(60, 0)
        model = ModelParams(rng.normal(size=(4, 2, 4)))
        that = model.transition_tensor()
        assert that.min() > 0.0
        assert np.abs(that.sum(axis=2) - 1.0).max() <= 1e-12

    def test_rank_limited_rows_are_distributions(self):
        rng = cell_rng(60, 1)
        model = RankLimitedModelParams(rng.normal(size=(2, 5)), rng.normal(size=(5, 2, 2)))
        that = model.transition_tensor()
        assert that.min() > 0.0
        assert np.abs(that.sum(axis=2) - 1.0).max() <= 1e-12

    def test_flat_round_trip(self):
        rng = cell_rng(60, 2)
        model = RankLimitedModelParams(rng.normal(size=(2, 4)), rng.normal(size=(4, 1, 2)))
        again = model.with_flat(model.flat())
        assert np.array_equal(again.basis_logits, model.basis_logits)
        assert np.array_equal(again.weight_logits, model.weight_logits)


class TestAggregateLoss:
    def test_exact_logits_give_zero_for_all_kinds(self):
        mdp = small_mdp(seed=1, smoothing=0.6)  # strictly positive rows
        model = ModelParams(np.log(mdp.transition))
        for kind in (KL_LOSS, WASSERSTEIN_LOSS, vaml_loss_kind(1.0)):
            assert aggregate_loss(mdp, model, kind) <= 1e-9

    def test_kl_against_uniform_model_formula(self):
        mdp = small_mdp(seed=2, n=5, smoothing=0.2)
        n = mdp.n_states
        uniform = np.full((n, mdp.n_actions, n), 1.0 / n)
        got = aggregate_loss(mdp, uniform, KL_LOSS)
        cells = []
        for s in range(n):
            for a in range(mdp.n_actions):
                row = mdp.transition[s, a]
                mask = row > 0
                cells.append(float(np.sum(row[mask] * np.log(n * row[mask]))))
        assert got == pytest.approx(np.mean(cells), abs=1e-12)

    def test_kl_pair_loss_keeps_the_old_bits_and_is_infinite_off_support(self):
        from wassmdp.learner import _pair_loss

        mdp = small_mdp(seed=2, n=5, m=2, smoothing=0.2)
        rng = cell_rng(63, 0)
        for s in range(5):
            for a in range(2):
                t_row = mdp.transition[s, a]
                m_row = rng.dirichlet(np.full(5, 0.5))
                mask = t_row > 0.0
                formula = max(float(np.sum(t_row[mask] * np.log(t_row[mask] / m_row[mask]))), 0.0)
                assert _pair_loss(mdp, KL_LOSS, None, t_row, m_row) == formula
                # A model row that underflowed to zero where the true row has
                # mass: the line search must see a loss it rejects.
                off = np.eye(5)[(int(np.argmax(t_row)) + 1) % 5]
                assert _pair_loss(mdp, KL_LOSS, None, t_row, off) == np.inf

    def test_vaml_aggregate_is_scaled_squared_wasserstein(self):
        mdp = small_mdp(seed=3, n=5, m=2)
        rng = cell_rng(61, 0)
        model = ModelParams(rng.normal(size=(5, 2, 5)))
        that = model.transition_tensor()
        c = 1.7
        got = aggregate_loss(mdp, model, vaml_loss_kind(c))
        cells = []
        for s in range(5):
            for a in range(2):
                w, _ = wasserstein_primal(
                    Distribution(mdp.transition[s, a]), Distribution(that[s, a]), mdp.space
                )
                cells.append((c * w) ** 2)
        assert got == pytest.approx(np.mean(cells), rel=1e-6)

    def test_nonnegative(self):
        mdp = small_mdp(seed=4)
        rng = cell_rng(61, 1)
        model = ModelParams(rng.normal(size=(4, 1, 4)))
        for kind in (KL_LOSS, WASSERSTEIN_LOSS, vaml_loss_kind(2.0)):
            assert aggregate_loss(mdp, model, kind) >= 0.0


class TestGradients:
    def test_fd_matches_analytic_kl(self):
        from wassmdp.learner import _fd_gradient_full, _kl_gradient_full

        mdp = small_mdp(seed=5, n=4, m=2, smoothing=0.4)
        rng = cell_rng(62, 0)
        for _ in range(20):
            model = ModelParams(rng.normal(0.0, 1.0, size=(4, 2, 4)))
            analytic = _kl_gradient_full(mdp, model)
            fd = _fd_gradient_full(mdp, KL_LOSS, None, model, 1e-5)
            scale = 1.0 + np.abs(analytic).max()
            assert np.abs(fd - analytic).max() <= 1e-5 * scale


class TestFitModel:
    def test_kl_fit_converges_and_plans_well(self):
        mdp = small_mdp(seed=6, n=5, m=2, smoothing=0.5)
        report = fit_model(mdp, KL_LOSS, FitConfig(iters=600, step_size=1.0))
        assert report.loss_curve[-1] <= 1e-5
        v_scale = np.abs(
            np.linalg.solve(
                np.eye(5) - mdp.gamma * mdp.transition[np.arange(5), 0], mdp.reward[:, 0]
            )
        ).max()
        assert report.planning_gap <= 1e-3 * max(v_scale, 1.0)

    def test_loss_curve_nonincreasing(self):
        mdp = small_mdp(seed=7, n=4, m=1)
        for kind in (KL_LOSS, WASSERSTEIN_LOSS):
            report = fit_model(mdp, kind, FitConfig(iters=25, step_size=0.5))
            diffs = np.diff(report.loss_curve)
            assert diffs.max(initial=-1.0) <= 1e-12

    def test_single_state_planning_gap_zero(self):
        space = MetricSpace.from_matrix([[0.0]])
        mdp = FiniteMdp(space, np.array([[1.0, 0.2]]), np.ones((1, 2, 1)), 0.9)
        for kind in (KL_LOSS, WASSERSTEIN_LOSS, vaml_loss_kind(1.0)):
            report = fit_model(mdp, kind, FitConfig(iters=5, step_size=0.2))
            assert report.planning_gap <= 1e-9

    def test_deterministic_in_seed(self):
        mdp = small_mdp(seed=8, n=4, m=2)
        a = fit_model(mdp, KL_LOSS, FitConfig(iters=30, seed=5))
        b = fit_model(mdp, KL_LOSS, FitConfig(iters=30, seed=5))
        assert np.array_equal(a.loss_curve, b.loss_curve)
        assert np.array_equal(a.final_model.logits, b.final_model.logits)
        assert a.planning_gap == b.planning_gap

    def test_wasserstein_fit_reduces_loss(self):
        mdp = small_mdp(seed=9, n=4, m=1)
        report = fit_model(mdp, WASSERSTEIN_LOSS, FitConfig(iters=30, step_size=0.5))
        assert report.loss_curve[-1] < report.loss_curve[0]

    def test_vaml_fit_reduces_loss_and_tracks_equivalence(self):
        mdp = small_mdp(seed=10, n=4, m=1)
        c = value_lipschitz_bound(mdp).c
        report = fit_model(mdp, vaml_loss_kind(c), FitConfig(iters=20, step_size=0.5, log_every=5))
        assert report.loss_curve[-1] < report.loss_curve[0]
        for _, model in report.snapshots:
            rep = verify_equivalence(mdp, model.transition_tensor(), c)
            for cell in rep.cells:
                assert cell.gap <= 1e-5 * (1.0 + cell.vaml)

    def test_rank_limited_fit_runs(self):
        mdp = small_mdp(seed=11, n=4, m=1, smoothing=0.3)
        report = fit_model(mdp, KL_LOSS, FitConfig(iters=40, step_size=0.5, model_rank=2))
        assert isinstance(report.final_model, RankLimitedModelParams)
        assert report.loss_curve[-1] < report.loss_curve[0]
        # two shared basis rows cannot reproduce this kernel exactly
        assert report.loss_curve[-1] > 1e-8

    def test_planning_gap_invariant_to_reward_shift(self):
        mdp = small_mdp(seed=12, n=5, m=2)
        shifted = FiniteMdp(
            mdp.space, mdp.reward + 11.25, mdp.transition, mdp.gamma,
            mdp.measured_kernel_constant, mdp.measured_reward_constant,
        )
        cfg = FitConfig(iters=40, step_size=0.8)
        a = fit_model(mdp, KL_LOSS, cfg)
        b = fit_model(shifted, KL_LOSS, cfg)
        assert abs(a.planning_gap - b.planning_gap) <= 1e-9

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_start_raises_with_iteration(self):
        mdp = small_mdp(seed=13)
        bad = ModelParams(np.full((4, 1, 4), np.inf))
        for kind in (KL_LOSS, WASSERSTEIN_LOSS):
            with pytest.raises(TrainingDivergedError) as info:
                fit_model(mdp, kind, FitConfig(iters=5), init_model=bad)
            assert info.value.iteration == 0

    def test_report_serialization(self, tmp_path):
        mdp = small_mdp(seed=14)
        report = fit_model(mdp, KL_LOSS, FitConfig(iters=10))
        doc = report.to_json_dict()
        assert doc["kind"] == "kl"
        assert len(doc["loss_curve"]) == len(report.loss_curve)
        path = tmp_path / "curve.csv"
        report.write_loss_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == len(report.loss_curve) + 1


class TestCompareLosses:
    def test_single_kind_consistent_with_fit(self):
        mdp = small_mdp(seed=15, n=4, m=1)
        cfg = FitConfig(iters=20, step_size=0.5)
        comparison = compare_losses(mdp, [KL_LOSS], cfg)
        direct = fit_model(mdp, KL_LOSS, cfg)
        assert len(comparison.rows) == 1
        assert comparison.rows[0].loss_curve[-1] == direct.loss_curve[-1]
        assert comparison.rows[0].planning_gap == direct.planning_gap

    def test_wasserstein_and_vaml_cross_satisfy_identity(self):
        mdp = small_mdp(seed=16, n=4, m=1)
        c = value_lipschitz_bound(mdp).c
        cfg = FitConfig(iters=15, step_size=0.5)
        comparison = compare_losses(mdp, [WASSERSTEIN_LOSS, vaml_loss_kind(c)], cfg)
        for report in comparison.rows:
            that = report.final_model.transition_tensor()
            rep = verify_equivalence(mdp, that, c)
            for cell in rep.cells:
                assert cell.gap <= 1e-6 * (1.0 + cell.vaml)

    def test_constant_value_function_gives_zero_gap_for_all_kinds(self):
        # constant rewards on a uniform-kernel MDP make every policy equal
        n = 4
        t = np.full((n, 2, n), 1.0 / n)
        mdp = FiniteMdp(MetricSpace.unit_line(n), np.full((n, 2), 0.3), t, 0.9)
        cfg = FitConfig(iters=8, step_size=0.3)
        comparison = compare_losses(
            mdp, [KL_LOSS, WASSERSTEIN_LOSS, vaml_loss_kind(1.0)], cfg
        )
        for report in comparison.rows:
            assert report.planning_gap <= 1e-9

    def test_csv_outputs(self, tmp_path):
        mdp = small_mdp(seed=17, n=4, m=1)
        comparison = compare_losses(mdp, [KL_LOSS, WASSERSTEIN_LOSS], FitConfig(iters=10, step_size=0.5))
        comparison.write_csv(tmp_path / "table.csv")
        comparison.write_cross_csv(tmp_path / "cross.csv")
        table = (tmp_path / "table.csv").read_text().splitlines()
        cross = (tmp_path / "cross.csv").read_text().splitlines()
        assert table[0] == "kind,final_loss,planning_gap,iterations_run"
        assert len(table) == 3
        assert cross[0] == "model,kl,wasserstein"
        doc = comparison.to_json_dict()
        assert doc["context"]["value_bound"] == comparison.value_bound

    def test_empty_kinds_rejected(self):
        with pytest.raises(ValueError):
            compare_losses(small_mdp(seed=18), [], FitConfig(iters=5))

    def test_contraction_precondition_raises_before_any_fit(self, monkeypatch):
        # The kernel triples distances on a unit line: gamma * K_W = 2.7.
        t = np.zeros((4, 1, 4))
        t[[0, 2], 0, 0] = 1.0
        t[[1, 3], 0, 3] = 1.0
        mdp = FiniteMdp(MetricSpace.unit_line(4), np.arange(4.0).reshape(4, 1), t, 0.9)

        def no_fit(*args):
            raise AssertionError("compare_losses fitted before checking the precondition")

        monkeypatch.setattr(learner, "fit_model", no_fit)
        with pytest.raises(ContractionPreconditionError, match=">= 1"):
            compare_losses(mdp, [KL_LOSS], FitConfig(iters=2))


class TestAnswerMemo:
    def test_fits_match_fresh_solves_and_hits_match_repeats(self, monkeypatch):
        # Finite differences of the rank-limited class re-solve every cell a
        # bumped weight leaves unchanged, and compare_losses re-scores the
        # fitted models; the memo answers exactly those byte-identical
        # repeats, and the reports match a run that solves every LP afresh.
        mdp = small_mdp(seed=4, n=4, m=2)
        config = FitConfig(iters=1, step_size=0.5, model_rank=2)
        runs = {
            "wasserstein": lambda: fit_model(mdp, WASSERSTEIN_LOSS, config),
            "vaml": lambda: fit_model(mdp, vaml_loss_kind(), config),
            "compare": lambda: compare_losses(mdp, [KL_LOSS, WASSERSTEIN_LOSS, vaml_loss_kind()], config),
        }
        solve = lp.solve_lp

        def run(name, fresh):
            lp.clear_memo()
            seen, repeats, hits = set(), 0, 0

            def recording(problem):
                nonlocal repeats, hits
                if fresh:
                    lp.clear_memo()
                sol = solve(problem)
                digest = hashlib.sha1()
                p = problem
                for a in (p.objective, p.A, p.relations, p.rhs, p.lower, p.upper):
                    digest.update(repr(a.shape).encode() + a.tobytes())
                repeats += digest.digest() in seen
                seen.add(digest.digest())
                hits += sol.answer_reused
                return sol

            monkeypatch.setattr(lp, "solve_lp", recording)
            result = runs[name]().to_json_dict()
            monkeypatch.setattr(lp, "solve_lp", solve)
            return result, repeats, hits

        for name in runs:
            with_memo, repeats, hits = run(name, fresh=False)
            afresh, fresh_repeats, fresh_hits = run(name, fresh=True)
            assert with_memo == afresh
            assert repeats == fresh_repeats > 0
            assert hits == repeats
            assert fresh_hits == 0
