"""Contract test for the command line on mutated inputs.

Each example mutates one valid document, an MDP file as ``save_mdp``
writes it (read by ``run gvi``) or a ``run learn`` or ``run compare``
config, writes it to a new directory and runs ``cli.main`` there at a
small budget: ``iters`` 1 and ``max_iter`` 1000, which no mutation
touches.  The mutations are JSON type swaps, NaN and Infinity literals,
magnitudes of 1e300 to 1e308 and 1e-300 (in the ``vaml:<c>`` radius
too), ragged, nested and reshaped arrays, and extra and missing keys.

Whatever the input, the documented contract holds: the exit code is 0,
1 or 2 and nothing is raised; on exit 2 stderr is exactly one
``error:`` line and no report is written; on exit 1 stderr ends in its
one ``error:`` line; and no warning is issued or printed.
"""

import contextlib
import copy
import functools
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings, strategies as st

from wassmdp import cli
from wassmdp.mdp import FiniteMdp, generate_lipschitz_mdp, save_mdp
from wassmdp.metric import MetricSpace

MAGNITUDES = [1e300, -1e300, 1e308, -1e308, 1e-300, -1e-300]
NON_FINITE = [math.nan, math.inf, -math.inf]
SWAPS = ["x", "0.5", True, False, None, [], {}, 0, 1, -1, 0.5]
# The budget keys: a mutation could only make a run longer, or unbounded.
BUDGET = frozenset({"iters", "max_iter"})


@functools.lru_cache(maxsize=None)
def mdp_doc(space_kind):
    """A 3-state, 2-action MDP file body as ``save_mdp`` writes it: a line,
    circle or grid2d embedding, or a labelled distance matrix ("dist")."""
    mdp = generate_lipschitz_mdp(3, 2, 0.9, 0.5, 0, space_kind="line" if space_kind == "dist" else space_kind, measure=False)
    if space_kind == "dist":
        space = MetricSpace.from_matrix(mdp.space.dist, labels=["a", "b", "c"])
        mdp = FiniteMdp(space, mdp.reward, mdp.transition, mdp.gamma)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        save_mdp(mdp, path)
        with open(path) as fh:
            return json.load(fh)


LEARN = {"mdp": "m.json", "kind": "vaml", "iters": 1, "step_size": 0.1, "seed": 0, "log_every": 1, "model_rank": None}
COMPARE = {"mdp": "m.json", "kinds": ["kl", "wasserstein", "vaml"], "iters": 1, "step_size": 0.1}


def paths(node, path=()):
    """Every path into a JSON tree, the root first; budget keys are left out."""
    yield path
    if isinstance(node, dict):
        for key in sorted(node):
            if key not in BUDGET:
                yield from paths(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from paths(item, path + (i,))


def replacements(node):
    """What a node may become: a type swap, a non-finite number, and for a
    number a huge or tiny one, for a list a ragged, longer, nested or
    reshaped one, and for a loss kind a radius."""
    out = SWAPS + NON_FINITE
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        out = out + MAGNITUDES
    if isinstance(node, list) and node:
        out = out + [node[:-1], node + node[:1], [node], [[item] for item in node]]
        if all(isinstance(item, list) and item for item in node):
            out = out + [[x for item in node for x in item], [node[0][:-1]] + node[1:]]
    if isinstance(node, str) and node.startswith("vaml"):
        out = out + [f"vaml:{c!r}" for c in MAGNITUDES + NON_FINITE]
    return out


@st.composite
def mutated(draw, base):
    """``base`` with one node replaced, or one key of an object removed or added."""
    doc = copy.deepcopy(base)
    path = draw(st.sampled_from(list(paths(doc))))
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    changes = [("replace", value) for value in replacements(node)]
    if isinstance(node, dict):
        changes += [("drop", key) for key in sorted(node) if key not in BUDGET] + [("add", "extra")]
    change, value = draw(st.sampled_from(changes))
    if change == "drop":
        del node[value]
    elif change == "add":
        node[value] = 0
    elif parent is None:
        return value
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def check_contract(argv, files):
    """Write ``files`` (name: JSON body) to a new directory, run ``cli.main``
    there with ``--out out`` and assert the contract."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, doc in files.items():
            with open(name, "w") as fh:
                json.dump(doc, fh)
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main([*argv, "--config", "cfg.json", "--out", "out"])
        wrote = os.path.exists("out")
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    assert "Warning" not in out + err
    lines = err.splitlines()
    if code == 2:
        assert len(lines) == 1 and err.endswith("\n") and lines[0].startswith("error: "), err
        assert not wrote
    elif code == 1:
        assert err.endswith("\n") and lines[-1].startswith("error: "), err
        assert sum(line.startswith("error: ") for line in lines) == 1, err
    else:
        assert err == "" and wrote
    return code


class TestCliContract:
    @settings(max_examples=400)
    @given(st.sampled_from(["line", "circle", "grid2d", "dist"]).flatmap(lambda kind: mutated(mdp_doc(kind))))
    # A line embedding of one-element rows loaded as a flat one.
    @example({**mdp_doc("line"), "space": {"embedding": {"kind": "line", "coords": [[0.0], [1.0], [2.0]]}}})
    def test_run_gvi_on_a_mutated_mdp_file(self, doc):
        check_contract(["run", "gvi"], {"m.json": doc, "cfg.json": {"mdp": "m.json", "max_iter": 1000}})

    @settings(max_examples=150)
    @given(mutated(LEARN))
    # A radius whose product with a distance overflows reached the LP.
    @example({**LEARN, "kind": "vaml:1e+308"})
    def test_run_learn_on_a_mutated_config(self, config):
        check_contract(["run", "learn"], {"m.json": mdp_doc("line"), "cfg.json": config})

    @settings(max_examples=100)
    @given(mutated(COMPARE))
    @example({**COMPARE, "kinds": ["vaml:1e+308"]})
    def test_run_compare_on_a_mutated_config(self, config):
        check_contract(["run", "compare"], {"m.json": mdp_doc("line"), "cfg.json": config})
