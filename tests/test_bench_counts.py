"""The benchmark's traced count and output checks, on small designs.

Each workload of ``bench/workloads.py`` runs one round of a cut-down
design under ``tracer.Tracer``; the round's spans must match the counts
its inputs imply, and its outputs must pass the workload's reference
checks.  An edit that moves a call out from under a traced name (say, a
loss computed without ``vaml.vaml_loss``) fails here.  A second, untraced
round then reads the LP memo the first one filled, and each step's
fingerprint must equal round 1's, as ``bench/run.py`` requires of every
later round; a stored answer whose bits differ from a fresh solve's fails
here.  The full traced run, ``bench/run.py --trace 1`` on every workload,
stays the check before merging.
"""

import sys
from pathlib import Path

import pytest

from wassmdp import lp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


class SmallEquivalence(workloads.Equivalence):
    DESIGN = ((4, 1), (5, 2))


class SmallTheorem(workloads.Theorem):
    def prepare(self):
        super().prepare()
        self.design = self.design[:2]


class SmallLearn(workloads.Learn):
    MDPS = 1
    FITS = (("kl", None, 2), ("wasserstein", None, 1), ("vaml", 2, 1))


class SmallTransport(workloads.Transport):
    DESIGN = tuple((6, kind) for kind in workloads.Transport.SUPPORT)


@pytest.mark.parametrize("workload", [SmallEquivalence, SmallTheorem, SmallLearn, SmallTransport])
def test_one_traced_round_passes_the_count_and_output_checks(workload):
    bench = workload(seed=7)
    bench.prepare()
    steps = bench.steps()
    outputs, state = {}, {}
    with tracer.Tracer() as probe:
        for step in steps:
            outputs[step.label] = step.fn(state)
    assert bench.check_counts(probe.spans) == []
    assert bench.check(outputs, state) == []
    hits = lp.memo_counts()["answer_reused"]
    again, state = {}, {}
    for step in steps:
        again[step.label] = step.fn(state)
    assert lp.memo_counts()["answer_reused"] > hits
    assert {label: bench.fingerprint(out) for label, out in again.items()} == {
        label: bench.fingerprint(out) for label, out in outputs.items()
    }
