import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from wassmdp import learner, lp, mdp as mdp_mod, vaml
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
from wassmdp.mdp import FiniteMdp, generate_lipschitz_mdp, kernel_lipschitz
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
        # LossKind owns the kind and parameter rules; the parser only splits.
        for text, message in (
            ("kl:1", "kl takes no parameter"),
            ("wasserstein:0", "wasserstein takes no parameter"),
            ("hellinger", "unknown loss kind 'hellinger'"),
            ("vaml:-1", "vaml radius must be finite and >= 0"),
            ("vaml:x", "could not convert string to float"),
        ):
            with pytest.raises(ValueError, match=message):
                parse_loss_kind(text)
        assert parse_loss_kind(" vaml :2.5").c == 2.5
        with pytest.raises(ValueError):
            LossKind("vaml", -1.0)


class TestFitSettings:
    def test_model_rank_checked_before_any_work(self, monkeypatch):
        mdp = small_mdp(seed=2, n=4, m=2)
        solves = []
        monkeypatch.setattr(lp, "solve_lp", solves.append)
        for rank in (0, 5):
            bad = FitConfig(iters=1, model_rank=rank)
            for run in (
                lambda: learner.check_fit_settings(mdp, bad),
                lambda: fit_model(mdp, WASSERSTEIN_LOSS, bad),
                lambda: compare_losses(mdp, [WASSERSTEIN_LOSS], bad),
            ):
                with pytest.raises(ValueError, match=rf"model_rank: must lie in \[1, 4\], got {rank}"):
                    run()
        assert not solves
        for rank in (None, 1, 4):
            learner.check_fit_settings(mdp, FitConfig(model_rank=rank))

    @pytest.mark.parametrize(
        "field, value",
        [("model_rank", 2.5), ("model_rank", True), ("log_every", 1.5), ("iters", 2.5), ("seed", 1.5),
         ("iters", True), ("seed", False), ("log_every", "20"), ("iters", None)],
    )
    def test_integer_fields_take_integers_only(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {re.escape(repr(value))}$"):
            FitConfig(**{field: value})

    def test_integer_fields_take_numpy_integers(self):
        config = FitConfig(iters=np.int64(3), seed=np.uint32(7), log_every=np.int32(2), model_rank=np.int64(2))
        assert (config.iters, config.seed, config.log_every, config.model_rank) == (3, 7, 2, 2)
        assert FitConfig(model_rank=None).model_rank is None

    @pytest.mark.parametrize("step", [0.0, -1.0, np.inf, np.nan, True, np.True_])
    def test_step_size_must_be_positive_and_finite(self, step):
        rule = "a number, not a bool" if isinstance(step, (bool, np.bool_)) else "positive and finite"
        with pytest.raises(ValueError, match=rf"^step_size must be {rule}, got {re.escape(repr(step))}$"):
            FitConfig(step_size=step)


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

    @pytest.mark.parametrize("shape", [(5, 2, 4), (4, 1, 4)], ids=["extra_state", "missing_action"])
    def test_model_of_another_shape_rejected(self, shape):
        mdp = small_mdp(seed=1, n=4, m=2)
        with pytest.raises(ValueError, match=re.escape(f"transition must have shape (4, 2, 4), got {shape}")):
            aggregate_loss(mdp, np.full(shape, 0.25), WASSERSTEIN_LOSS)

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
                assert _pair_loss(mdp, KL_LOSS, None, s, a, Distribution(m_row)) == formula
                # A model row that underflowed to zero where the true row has
                # mass: the line search must see a loss it rejects.
                off = np.eye(5)[(int(np.argmax(t_row)) + 1) % 5]
                assert _pair_loss(mdp, KL_LOSS, None, s, a, Distribution(off)) == np.inf

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


class TestTrueRows:
    def test_one_distribution_per_true_row_per_mdp(self, monkeypatch):
        given = []  # every array a Distribution was built from, kept alive so no address repeats
        check = Distribution.__post_init__

        def counting(self):
            given.append(self.p)
            check(self)

        # The MDP checks its rows as it is built, so counting starts first.
        monkeypatch.setattr(Distribution, "__post_init__", counting)
        mdp = small_mdp(seed=5, n=4, m=2)
        kernel_lipschitz(mdp)
        fit_model(mdp, WASSERSTEIN_LOSS, FitConfig(iters=3, step_size=0.5))
        fit_model(mdp, vaml_loss_kind(1.0), FitConfig(iters=1, step_size=0.5, model_rank=2))
        verify_equivalence(mdp, cell_rng(64, 0).dirichlet(np.ones(4), size=(4, 2)), 1.0)
        built = [
            p.__array_interface__["data"][0]
            for p in given
            if isinstance(p, np.ndarray) and np.shares_memory(p, mdp.transition)
        ]
        assert len(built) == len(set(built)) == 8
        for s in range(4):
            for a in range(2):
                assert mdp.transition_dist(s, a) is mdp.transition_dist(s, a)
                assert np.array_equal(mdp.transition_dist(s, a).p, mdp.transition[s, a])


class TestOneCellLoss:
    @pytest.mark.parametrize("rank", [None, 2])
    def test_per_cell_losses_are_vaml_losses_and_aggregate_is_their_mean(self, rank):
        mdp = small_mdp(seed=5, n=4, m=2)
        report = fit_model(mdp, vaml_loss_kind(), FitConfig(iters=3, step_size=0.5, model_rank=rank))
        model = replace(mdp, transition=report.final_model.transition_tensor())
        for s in range(4):
            for a in range(2):
                assert report.per_cell_losses[s, a] == vaml.vaml_loss(mdp, model, report.c_used, s, a)[0]
        total = 0.0
        for loss in report.per_cell_losses.ravel().tolist():  # row order, one addition at a time
            total += loss
        assert aggregate_loss(mdp, report.final_model, report.kind) == total / 8


class TestGradients:
    def test_fd_matches_analytic_kl(self):
        from wassmdp.learner import _fd_gradient_full, _kl_gradient_full

        mdp = small_mdp(seed=5, n=4, m=2, smoothing=0.4)
        rng = cell_rng(62, 0)
        for _ in range(20):
            model = ModelParams(rng.normal(0.0, 1.0, size=(4, 2, 4)))
            analytic = _kl_gradient_full(mdp, model)
            fd = _fd_gradient_full(mdp, KL_LOSS, None, model)
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
        shifted = replace(mdp, reward=mdp.reward + 11.25)
        assert shifted.measured_kernel_constant == mdp.measured_kernel_constant
        assert shifted.measured_reward_constant == mdp.measured_reward_constant
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

    def test_measures_missing_constants_once(self, monkeypatch):
        # An MDP read from a file has not measured its constants yet; every fit
        # and cross-evaluation needs K_W, and the MDP measures it once.
        mdp = small_mdp(seed=15, n=4, m=1)
        bare = FiniteMdp(mdp.space, mdp.reward, mdp.transition, mdp.gamma)
        calls = []
        measure = mdp_mod.kernel_lipschitz

        def counting(arg):
            calls.append(arg)
            return measure(arg)

        monkeypatch.setattr(mdp_mod, "kernel_lipschitz", counting)
        cfg = FitConfig(iters=2, step_size=0.5)
        kinds = [KL_LOSS, WASSERSTEIN_LOSS, vaml_loss_kind()]
        comparison = compare_losses(bare, kinds, cfg)
        assert len(calls) == 1
        assert comparison.to_json_dict() == compare_losses(mdp, kinds, cfg).to_json_dict()


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
