"""The benchmark's workloads: inputs made from a seed, one round of steps, checks.

A round is a fixed list of steps.  Steps marked as items are timed one
by one; every step counts toward the round's wall time.  Round outputs
are checked against ``reference`` after timing, and the per-round span
counts of a traced round against counts derived from the inputs.
"""

from __future__ import annotations

import collections
import itertools
from typing import Callable, NamedTuple

import numpy as np

import reference as ref
import tracer
from wassmdp import learner, mdp as mdp_mod, planner, suites, transport, vaml


class Step(NamedTuple):
    label: str
    fn: Callable[[dict], object]  # takes the round's shared state
    item: bool = True


def derived_seed(*parts) -> int:
    """A 32-bit seed fixed by the benchmark seed and a step's position."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _rel(a, b) -> float:
    return abs(a - b) / (1.0 + abs(b))


def _kernel_constants(mdp):
    """K_R by brute force and K_W from closed-form line W1, for a line-embedded MDP."""
    x = ref.line_coords(mdp.space.embedding["coords"], mdp.space.dist)
    t = mdp.transition
    kw = 0.0
    for a in range(mdp.n_actions):
        for s1 in range(mdp.n_states):
            for s2 in range(s1 + 1, mdp.n_states):
                kw = max(kw, ref.w1_line(t[s1, a], t[s2, a], x) / mdp.space.dist[s1, s2])
    return ref.lipschitz_brute(mdp.reward, mdp.space.dist), kw


def _check_constants(mdp, where, problems):
    kr, kw = _kernel_constants(mdp)
    if _rel(mdp.measured_reward_constant, kr) > 1e-12:
        problems.append(f"{where}: K_R {mdp.measured_reward_constant!r} vs brute force {kr!r}")
    if abs(mdp.measured_kernel_constant - kw) > 1e-9:
        problems.append(f"{where}: K_W {mdp.measured_kernel_constant!r} vs closed form {kw!r}")
    return kr, kw


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def prepare(self) -> None:
        """Make the inputs; runs during set-up and may run more than once."""

    def warmup(self) -> None:
        """One untimed item."""

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def fingerprint(self, output) -> tuple:
        """Numbers that must repeat exactly in every round."""
        raise NotImplementedError

    def check(self, outputs: dict, state: dict) -> list[str]:
        """Problems found in the first round's outputs."""
        raise NotImplementedError

    def check_counts(self, spans) -> list[str]:
        """Disagreements between a traced round's spans and the inputs."""
        raise NotImplementedError


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: traced {got}, expected {want}")


class Equivalence(Workload):
    """One trial of ``suites.equivalence_suite`` per item.

    Item seeds are drawn from the benchmark seed until every shape (n, m)
    of DESIGN has its trials, so every seed gets the same mix of sizes:
    each n in 4..15 with two action counts, and eight more trials of
    (9, 2), whose trials take about the median item's time, so that the
    median falls in the middle of nine alike items instead of between
    two sizes.
    """

    name = "equivalence"
    DESIGN = tuple((n, 1 + (n + k) % 3) for n in range(4, 16) for k in (0, 1)) + 8 * ((9, 2),)

    @staticmethod
    def _suite_shape(seed):
        # The first two draws of an equivalence_suite trial: n, then m.
        rng = suites.cell_rng(seed, 0)
        return int(rng.integers(4, 16)), int(rng.integers(1, 4))

    def prepare(self):
        wanted = collections.Counter(self.DESIGN)
        found = {shape: [] for shape in wanted}
        missing = len(self.DESIGN)
        for k in itertools.count():
            seed = derived_seed(1, self.seed, k)
            shape = self._suite_shape(seed)
            if shape in found and len(found[shape]) < wanted[shape]:
                found[shape].append(seed)
                missing -= 1
                if not missing:
                    break
        taken = collections.Counter()
        self.items = []  # (label, (n, m), suite seed)
        for n, m in self.DESIGN:
            j = taken[n, m]
            taken[n, m] += 1
            self.items.append((f"n{n}m{m}.{j}", (n, m), found[n, m][j]))
        self.warm_seed = derived_seed(5, self.seed)

    def warmup(self):
        suites.equivalence_suite(seed=self.warm_seed, trials=1, max_states=6)

    def steps(self):
        return [
            Step(label, lambda st, s=seed: suites.equivalence_suite(seed=s, trials=1))
            for label, _, seed in self.items
        ]

    def fingerprint(self, report):
        return (report.max_violation, report.worst["vaml"], report.worst["wasserstein"])

    @staticmethod
    def _replay(seed):
        """The trial's MDP, bound, model and per-cell report, rebuilt as the suite builds them."""
        rng = suites.cell_rng(seed, 0)
        n = int(rng.integers(4, 16))
        m = int(rng.integers(1, 4))
        gamma = float(rng.choice([0.8, 0.9, 0.95]))
        smoothing = float(rng.uniform(0.15, 0.9))
        mdp = mdp_mod.generate_lipschitz_mdp(n, m, gamma, smoothing, int(rng.integers(0, 2**31)))
        bound = vaml.value_lipschitz_bound(mdp).c
        that = suites.random_model_tensor(rng, mdp)
        return mdp, bound, that, vaml.verify_equivalence(mdp, that, bound)

    def check(self, outputs, state):
        problems = []
        for label, (n, m), seed in self.items:
            if label not in outputs:
                continue
            suite = outputs[label]
            if not suite.passed or (suite.worst["n"], suite.worst["m"]) != (n, m):
                problems.append(f"{label}: suite passed={suite.passed}, shape {suite.worst}")
                continue
            mdp, bound, that, report = self._replay(seed)
            worst_rel = max(cell.gap / (1.0 + cell.vaml) for cell in report.cells)
            if worst_rel != suite.max_violation:
                problems.append(f"{label}: replayed trial differs from the suite's")
            kr, kw = _check_constants(mdp, label, problems)
            if _rel(bound, kr / (1.0 - mdp.gamma * kw)) > 1e-9:
                problems.append(f"{label}: C = {bound!r} vs K_R/(1 - gamma K_W) recomputed")
            x = ref.line_coords(mdp.space.embedding["coords"], mdp.space.dist)
            for cell in report.cells:
                w = ref.w1_line(mdp.transition[cell.s, cell.a], that[cell.s, cell.a], x)
                if abs(cell.wasserstein - w) > 1e-9:
                    problems.append(f"{label} cell {cell.s},{cell.a}: W {cell.wasserstein!r} vs {w!r}")
                if abs(cell.vaml - (bound * w) ** 2) / (1.0 + cell.vaml) > 1e-6:
                    problems.append(f"{label} cell {cell.s},{cell.a}: vaml {cell.vaml!r} vs (C W)^2")
        return problems

    def check_counts(self, spans):
        problems = []
        calls = collections.Counter(span[0] for span in spans)
        cells = sum(n * m for n, m in self.DESIGN)
        items = len(self.DESIGN)
        _expect(problems, "suites calls", calls["suites"], items)
        _expect(problems, "mdp.generate calls", calls["mdp.generate"], items)
        _expect(problems, "mdp.kernel_lipschitz calls", calls["mdp.kernel_lipschitz"], items)
        _expect(problems, "vaml.verify_equivalence calls", calls["vaml.verify_equivalence"], items)
        _expect(problems, "vaml.vaml_loss calls", calls["vaml.vaml_loss"], cells)
        _expect(problems, "transport.dual calls", calls["transport.dual"], cells)
        _expect(
            problems,
            "transport.primal calls inside verify_equivalence",
            tracer.count_under(spans, "transport.primal", "vaml.verify_equivalence"),
            cells,
        )
        primal = calls["transport.primal"]
        _expect(
            problems,
            "transport.primal calls outside kernel_lipschitz",
            primal - tracer.count_under(spans, "transport.primal", "mdp.kernel_lipschitz"),
            cells,
        )
        _expect(problems, "lp.solve calls", calls["lp.solve"], primal + cells)
        _expect(problems, "lp.build calls", calls["lp.build"], primal + cells)
        # One per dual potential, plus 2m reward columns (generation and K_R) per MDP.
        _expect(
            problems,
            "metric.lipschitz calls",
            calls["metric.lipschitz"],
            cells + sum(2 * m for _, m in self.DESIGN),
        )
        return problems


OPERATORS = (
    planner.MAX,
    planner.MEAN,
    planner.eps_greedy(0.0),
    planner.eps_greedy(0.3),
    planner.mellowmax(1.0),
    planner.mellowmax(10.0),
)


class Theorem(Workload):
    """Per MDP: generate it (a step, not an item), then one GVI item per operator.

    Each item runs ``suites.theorem_suite`` on that MDP with one operator,
    so the suite's per-sweep recursion check runs inside the item.  The
    MDPs cover every (gamma, m) of the suite's grid once per smoothing
    stratum, with smoothing drawn inside the stratum; n cycles over 4..9.
    """

    name = "theorem"
    GAMMAS = (0.7, 0.9, 0.95)
    ACTIONS = (1, 2, 3)
    SMOOTHING = ((0.2, 0.55), (0.55, 0.9))  # the suite's range, in two strata

    def prepare(self):
        rng = np.random.default_rng(derived_seed(2, self.seed))
        grid = itertools.product(self.SMOOTHING, self.GAMMAS, self.ACTIONS)
        self.design = [
            (4 + i % 6, m, gamma, float(rng.uniform(*stratum)), int(rng.integers(0, 2**31)))
            for i, (stratum, gamma, m) in enumerate(grid)
        ]
        self.warm_mdp = mdp_mod.generate_lipschitz_mdp(4, 2, 0.7, 0.5, derived_seed(2, self.seed, 1))

    def warmup(self):
        suites.theorem_suite(seed=self.seed, trials=1, operators=[planner.MAX], mdps=[self.warm_mdp])

    def steps(self):
        out = []
        for i, params in enumerate(self.design):

            def generate(st, i=i, params=params):
                st[i] = mdp_mod.generate_lipschitz_mdp(*params)
                return st[i]

            out.append(Step(f"mdp{i}", generate, item=False))
            for op in OPERATORS:
                out.append(
                    Step(
                        f"mdp{i}/{planner.operator_spec(op)}",
                        lambda st, i=i, op=op: suites.theorem_suite(
                            seed=self.seed, trials=1, operators=[op], mdps=[st[i]]
                        ),
                    )
                )
        return out

    def fingerprint(self, output):
        if not hasattr(output, "worst"):  # a generated MDP
            return (output.measured_kernel_constant, output.measured_reward_constant)
        return (output.max_violation, output.worst["kq"], output.worst["kv"])

    def check(self, outputs, state):
        problems = []
        for i, (n, m, gamma, smoothing, _) in enumerate(self.design):
            if i not in state:
                continue
            mdp = state[i]
            kr, kw = _check_constants(mdp, f"mdp{i}", problems)
            bound = kr / (1.0 - gamma * kw)
            dist, t, r = mdp.space.dist, mdp.transition, mdp.reward
            for op in OPERATORS:
                label = f"mdp{i}/{planner.operator_spec(op)}"
                if label not in outputs:
                    continue
                suite = outputs[label]
                if not suite.passed or suite.skipped:
                    problems.append(f"{label}: suite passed={suite.passed}, skipped={suite.skipped}")
                if suite.details["recursion_max_excess"] > 1e-9:
                    problems.append(f"{label}: per-sweep recursion exceeded by more than 1e-9")
                q = planner.gvi(mdp, op, delta=1e-10).q.q
                residual = np.abs(q - (r + gamma * t @ ref.backup(op.kind, op.param, q))).max()
                if residual > 1e-9:
                    problems.append(f"{label}: fixed-point residual {residual:.3e}")
                kq = ref.lipschitz_brute(q, dist)
                kv = ref.lipschitz_brute(ref.backup(op.kind, op.param, q), dist)
                if max(kq, kv) > bound + 1e-8 * (1.0 + bound):
                    problems.append(f"{label}: K(Q) {kq!r}, K(V) {kv!r} above bound {bound!r}")
                if _rel(suite.worst["kq"], kq) > 1e-12 or _rel(suite.worst["kv"], kv) > 1e-9:
                    problems.append(f"{label}: suite K(Q), K(V) differ from brute force")
                previous = [0.0]
                excess = [0.0]

                def on_sweep(q_next, previous=previous, excess=excess):
                    k = ref.lipschitz_all_pairs(q_next, dist)
                    excess[0] = max(excess[0], k - (kr + gamma * kw * previous[0]))
                    previous[0] = k

                q_ref = ref.value_iteration(t, r, gamma, op.kind, op.param, tol=1e-12, on_sweep=on_sweep)
                if excess[0] > 1e-9:
                    problems.append(f"{label}: reference sweeps break the recursion by {excess[0]:.3e}")
                if np.abs(q_ref - q).max() > 1e-8 * (1.0 + np.abs(q).max()):
                    problems.append(f"{label}: GVI fixed point differs from reference value iteration")
        return problems

    def check_counts(self, spans):
        problems = []
        calls = collections.Counter(span[0] for span in spans)
        mdps = len(self.design)
        items = mdps * len(OPERATORS)
        sweeps = [span[4] for span in spans if span[0] == "planner.gvi"]
        ms = [m for _, m, *_ in self.design for _ in OPERATORS]
        _expect(problems, "suites calls", calls["suites"], items)
        _expect(problems, "planner.gvi calls", len(sweeps), items)
        _expect(problems, "mdp.generate calls", calls["mdp.generate"], mdps)
        _expect(problems, "mdp.kernel_lipschitz calls", calls["mdp.kernel_lipschitz"], mdps)
        _expect(problems, "transport.dual calls", calls["transport.dual"], 0)
        _expect(
            problems,
            "metric.lipschitz calls inside gvi",
            tracer.count_under(spans, "metric.lipschitz", "planner.gvi"),
            sum(s * m for s, m in zip(sweeps, ms)),
        )
        _expect(
            problems,
            "metric.lipschitz calls",
            calls["metric.lipschitz"],
            sum(s * m + m + 1 for s, m in zip(sweeps, ms)) + sum(2 * m for _, m, *_ in self.design),
        )
        primal = calls["transport.primal"]
        _expect(
            problems,
            "transport.primal calls inside kernel_lipschitz",
            tracer.count_under(spans, "transport.primal", "mdp.kernel_lipschitz"),
            primal,
        )
        _expect(problems, "lp.solve calls", calls["lp.solve"], primal)
        return problems


class Learn(Workload):
    """One ``learner.fit_model`` call per item on MDPs at the README's compare scale.

    Per MDP: full-rank and rank-2 fits under the Wasserstein and VAML
    losses, and a full-rank KL fit as the analytic-gradient control, each
    with a fixed iteration budget.
    """

    name = "learn"
    MDP = dict(n=6, m=2, gamma=0.9, smoothing=0.4)
    MDPS = 2
    STEP_SIZE = 0.5
    # (loss, model rank or None for full rank, iterations)
    FITS = (
        ("kl", None, 60),
        ("wasserstein", None, 3),
        ("vaml", None, 6),
        ("wasserstein", 2, 1),
        ("vaml", 2, 1),
    )

    def prepare(self):
        p = self.MDP
        self.mdps = [
            mdp_mod.generate_lipschitz_mdp(p["n"], p["m"], p["gamma"], p["smoothing"], derived_seed(3, self.seed, j))
            for j in range(self.MDPS)
        ]
        self.fit_seed = derived_seed(3, self.seed)

    def _config(self, rank, iters):
        return learner.FitConfig(
            iters=iters, step_size=self.STEP_SIZE, seed=self.fit_seed, log_every=20, model_rank=rank
        )

    def warmup(self):
        learner.fit_model(self.mdps[0], learner.WASSERSTEIN_LOSS, self._config(None, 1))

    def _fits(self):
        """(label, MDP, loss, rank, iterations) for every item of a round."""
        for j, mdp in enumerate(self.mdps):
            for kind, rank, iters in self.FITS:
                yield f"mdp{j}/{kind}/{'full' if rank is None else f'rank{rank}'}", mdp, kind, rank, iters

    def steps(self):
        return [
            Step(
                label,
                lambda st, mdp=mdp, kind=kind, rank=rank, iters=iters: learner.fit_model(
                    mdp, learner.parse_loss_kind(kind), self._config(rank, iters)
                ),
            )
            for label, mdp, kind, rank, iters in self._fits()
        ]

    def fingerprint(self, report):
        return (float(report.loss_curve[-1]), report.iterations_run, report.planning_gap)

    @staticmethod
    def _model_tensor(model):
        if isinstance(model, learner.RankLimitedModelParams):
            basis = ref.softmax(model.basis_logits, axis=1)
            weights = ref.softmax(model.weight_logits, axis=2)
            return np.einsum("smk,kn->smn", weights, basis)
        return ref.softmax(model.logits, axis=2)

    def check(self, outputs, state):
        problems = []
        bounds = {}
        for label, mdp, kind, rank, iters in self._fits():
            if id(mdp) not in bounds:
                kr, kw = _check_constants(mdp, label.split("/")[0], problems)
                bounds[id(mdp)] = kr / (1.0 - mdp.gamma * kw)
            if label not in outputs:
                continue
            report = outputs[label]
            t = mdp.transition
            curve = report.loss_curve
            if np.any(np.diff(curve) > 1e-12) or report.iterations_run > iters:
                problems.append(f"{label}: loss curve increases or overruns its budget")
            that = self._model_tensor(report.final_model)
            if np.abs(that - report.final_model.transition_tensor()).max() > 1e-12:
                problems.append(f"{label}: model tensor differs from the reference softmax")
            x = ref.line_coords(mdp.space.embedding["coords"], mdp.space.dist)
            cells = np.empty(t.shape[:2])
            for s, a in np.ndindex(*cells.shape):
                if kind == "kl":
                    cells[s, a] = ref.kl(t[s, a], that[s, a])
                else:
                    cells[s, a] = ref.w1_line(t[s, a], that[s, a], x)
            if kind == "vaml":
                if _rel(report.c_used, bounds[id(mdp)]) > 1e-9:
                    problems.append(f"{label}: c {report.c_used!r} vs recomputed bound {bounds[id(mdp)]!r}")
                cells = (report.c_used * cells) ** 2
            if _rel(curve[-1], cells.mean()) > 1e-9 or np.abs(report.per_cell_losses - cells).max() > 1e-9:
                problems.append(f"{label}: final loss {curve[-1]!r} vs recomputed {cells.mean()!r}")
            gaps = ref.planning_gaps(t, that, mdp.reward, mdp.gamma)
            if report.planning_gap < 0.0 or min(abs(g - report.planning_gap) for g in gaps) > 1e-8:
                problems.append(f"{label}: planning gap {report.planning_gap!r} vs reference {gaps}")
        return problems

    def check_counts(self, spans):
        problems = []
        fits = [i for i, span in enumerate(spans) if span[0] == "learner.fit"]
        items = list(self._fits())
        _expect(problems, "learner.fit calls", len(fits), len(items))
        per_fit = {i: {"transport.primal": 0, "transport.dual": 0, "planner.gvi": 0} for i in fits}
        for i, span in enumerate(spans):
            if span[0] in ("transport.primal", "transport.dual", "planner.gvi"):
                owner = tracer.ancestor(spans, i, "learner.fit")
                if owner in per_fit:
                    per_fit[owner][span[0]] += 1
        for index, (label, mdp, kind, rank, _) in zip(fits, items):
            n, m = mdp.n_states, mdp.n_actions
            cells = n * m
            counts = per_fit[index]
            iterations = spans[index][4]
            _expect(problems, f"{label} planner.gvi calls", counts["planner.gvi"], 2)
            used = {"kl": None, "wasserstein": "transport.primal", "vaml": "transport.dual"}[kind]
            for name in ("transport.primal", "transport.dual"):
                if name != used:
                    _expect(problems, f"{label} {name} calls", counts[name], 0)
            if used is None:
                continue
            # Per gradient, central differences over every parameter of every cell;
            # then at least one line-search trial, plus the first and last loss.
            params = n if rank is None else rank * n + n * m * rank
            floor = cells * (2 + iterations * (2 * params + 1))
            if counts[used] < floor or counts[used] % cells:
                problems.append(f"{label}: {counts[used]} {used} calls, expected a multiple of {cells} >= {floor}")
        calls = collections.Counter(span[0] for span in spans)
        transports = calls["transport.primal"] + calls["transport.dual"]
        _expect(problems, "lp.solve calls", calls["lp.solve"], transports)
        _expect(problems, "lp.build calls", calls["lp.build"], transports)
        _expect(problems, "metric.lipschitz calls", calls["metric.lipschitz"], calls["transport.dual"])
        return problems


class Transport(Workload):
    """Both W1 programs on one pair of distributions per item.

    Per round: a line, a shortest-path closure and a planar set at
    n = 20 and at n = 40, and nine planar sets at n = 30, so that the
    median item is the middle of nine alike pairs.  The first
    distribution has full support; the second has full support on lines,
    some zero-mass entries on planar sets and is a point mass on
    closures.  Distributions are drawn by ``suites.random_distribution``.
    """

    name = "transport"
    # metric space kind -> support of the second distribution
    SUPPORT = {"line": "full", "plane": "zeros", "closure": "point"}
    DESIGN = (
        tuple((20, kind) for kind in SUPPORT)
        + 9 * ((30, "plane"),)
        + tuple((40, kind) for kind in SUPPORT)
    )

    @staticmethod
    def _draw(rng, n, support):
        if support == "full":
            return suites.random_distribution(rng, n, allow_zeros=False)
        if support == "point":
            return transport.Distribution.point_mass(n, int(rng.integers(0, n)))
        while True:  # redraw until at least one entry is zero and two are not
            mu = suites.random_distribution(rng, n)
            if 1 < np.count_nonzero(mu.p) < n:
                return mu

    def prepare(self):
        self.pairs = {}
        base = derived_seed(4, self.seed)
        for index, (n, kind) in enumerate(self.DESIGN):
            rng = suites.cell_rng(base, index)
            space = suites.random_metric_space(rng, n, kind)
            mu1 = self._draw(rng, n, "full")
            self.pairs[f"{kind}{n}.{index}"] = (mu1, self._draw(rng, n, self.SUPPORT[kind]), space)
        rng = suites.cell_rng(base, len(self.pairs))
        self.warm_pair = (
            self._draw(rng, 10, "full"),
            self._draw(rng, 10, "zeros"),
            suites.random_metric_space(rng, 10, "line"),
        )

    @staticmethod
    def _solve(mu1, mu2, space):
        return (
            transport.wasserstein_primal(mu1, mu2, space),
            transport.wasserstein_dual(mu1, mu2, space, 1.0),
        )

    def warmup(self):
        self._solve(*self.warm_pair)

    def steps(self):
        return [Step(label, lambda st, pair=pair: self._solve(*pair)) for label, pair in self.pairs.items()]

    def fingerprint(self, output):
        (primal, _), (dual, _) = output
        return (primal, dual)

    def check(self, outputs, state):
        problems = []
        for label, (mu1, mu2, space) in self.pairs.items():
            if label not in outputs:
                continue
            (primal, coupling), (dual, potential) = outputs[label]
            p, q, d = mu1.p, mu2.p, space.dist
            if abs(primal - dual) > 1e-6:
                problems.append(f"{label}: primal {primal!r} vs dual {dual!r}")
            plan = coupling.plan
            if (
                plan.min() < -1e-12
                or np.abs(plan.sum(axis=1) - p).max() > 1e-9
                or np.abs(plan.sum(axis=0) - q).max() > 1e-9
                or abs(float((plan * d).sum()) - primal) > 1e-9
            ):
                problems.append(f"{label}: plan misses a marginal or its cost")
            f = potential.f.values
            if ref.lipschitz_brute(f, d) > 1.0 + 1e-9 or abs(float(f @ (p - q)) - dual) > 1e-9:
                problems.append(f"{label}: dual potential is not 1-Lipschitz or misses its value")
            if label.startswith("line"):
                w = ref.w1_line(p, q, ref.line_coords(space.embedding["coords"], d))
                if abs(primal - w) > 1e-9:
                    problems.append(f"{label}: primal {primal!r} vs closed form {w!r}")
            else:
                w = ref.highs_w1(p, q, d)
                if w is not None and abs(primal - w) > 1e-6:
                    problems.append(f"{label}: primal {primal!r} vs HiGHS {w!r}")
        return problems

    def check_counts(self, spans):
        problems = []
        calls = collections.Counter(span[0] for span in spans)
        items = len(self.pairs)
        _expect(problems, "transport.primal calls", calls["transport.primal"], items)
        _expect(problems, "transport.dual calls", calls["transport.dual"], items)
        _expect(problems, "lp.solve calls", calls["lp.solve"], 2 * items)
        _expect(problems, "lp.build calls", calls["lp.build"], 2 * items)
        _expect(problems, "metric.lipschitz calls", calls["metric.lipschitz"], items)
        return problems


WORKLOADS = {cls.name: cls for cls in (Equivalence, Theorem, Learn, Transport)}
