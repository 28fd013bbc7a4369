"""The benchmark's workloads: which generated frames each one uses and which
framelab CLI jobs it runs on them.

A job is one fresh ``python -m framelab.cli`` process.  ``argv`` names corpus
files as ``@<spec>.frame.json`` / ``@<spec>.probs.json``; ``run.py`` replaces
the ``@`` with the corpus directory.  ``check`` selects the output check in
``checks.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from corpus import FrameSpec


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: str  # "analyze", "search", "simulate" or "examples"
    spec: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[FrameSpec, ...]
    jobs: tuple[Job, ...]


def _inputs(spec: str) -> tuple[str, ...]:
    return (f"@{spec}.frame.json", "--probs", f"@{spec}.probs.json")


def analyze(spec: str, *extra: str) -> Job:
    return Job(f"analyze:{spec}", ("analyze", *_inputs(spec), *extra), "analyze", spec)


def search(spec: str, *extra: str) -> Job:
    return Job(f"search:{spec}", ("search", *_inputs(spec), *extra), "search", spec)


def simulate(spec: str, m: int, trials: int) -> Job:
    argv = ("simulate", *_inputs(spec), "--m", str(m), "--trials", str(trials), "--seed", "7")
    return Job(f"simulate:{spec}:m{m}", argv, "simulate", spec)


EXAMPLES = Job("examples", ("examples",), "examples")

M123 = ("--m", "1", "--m", "2", "--m", "3", "--measure", "both")
TRIALS = 20000

# One pass over a workload's jobs takes about 13-37 s on a 2-core machine at
# the seed commit, depending on the machine's speed of the moment.  With
# ``--seconds 20`` a run is then always one pass: a second pass starts only
# if it would end by the limit, which needs a pass of at most 10 s.  A pass
# length near that threshold would make the number of jobs per run, and so
# the run time and the spread of the median, depend on the machine's speed.
#
# Each workload has a cluster of jobs of similar cost in the middle, with a
# few cheaper jobs below it and dearer ones above, so the median job time is
# taken within that cluster and not across the gap between two job kinds.
# The inputs change with the seed, and the cluster's jobs are chosen so that
# their cost varies little between inputs.
WORKLOADS = {
    w.name: w
    for w in (
        # Cluster: 10x30 (4,525 erasure sets at m <= 3).  Below: 8x24.
        # Above: 16x40 and 8x60 (34,220 sets at m = 3, a 10 MB report).
        Workload(
            "enumerate",
            (
                FrameSpec("e_r8x24", 8, 24, "real", False, zeros=2),
                FrameSpec("e_c8x24", 8, 24, "complex", False),
                *(
                    FrameSpec(f"e_{f[0]}10x30_{k}", 10, 30, f, False, zeros=k % 3)
                    for k in range(3)
                    for f in ("real", "complex")
                ),
                FrameSpec("e_c16x40", 16, 40, "complex", False, zeros=3),
                FrameSpec("e_r8x60", 8, 60, "real", False),
            ),
            (
                analyze("e_r8x24", *M123),
                analyze("e_c8x24", *M123),
                *(analyze(f"e_{f}10x30_{k}", *M123) for k in range(3) for f in "rc"),
                analyze("e_c16x40", *M123),
                analyze("e_r8x60", *M123),
            ),
        ),
        # Cluster: spectral searches on 8x24, whose objective-evaluation
        # counts vary by 6-9% between inputs.  Below: 6x18.  Above: norm and
        # spectral searches on 4x10 and 4x12, and the 32x96 job, whose dense
        # dual basis alone is 101 MB and sets peak_rss_mb.  A norm search on
        # 8x24 takes 30-60 s at the seed commit, longer than a run.  Norm
        # searches on real frames are left out: their evaluation counts vary
        # by about 40% between inputs, which would move the median more than
        # a program change does.
        Workload(
            "search",
            (
                FrameSpec("s_r6x18", 6, 18, "real", False, zeros=1),
                *(
                    FrameSpec(f"s_{f[0]}8x24_{k}", 8, 24, f, False, zeros=k % 3)
                    for k in range(4)
                    for f in ("real", "complex")
                ),
                FrameSpec("s_c4x12", 4, 12, "complex", False, zeros=1),
                FrameSpec("s_c4x10", 4, 10, "complex", False),
                FrameSpec("s_c32x96", 32, 96, "complex", False),
            ),
            (
                search("s_c4x12", "--measure", "both", "--restarts", "4"),
                *(search(f"s_{f}8x24_{k}", "--measure", "spectral", "--restarts", "4") for k in range(4) for f in "rc"),
                search("s_r6x18", "--measure", "spectral", "--restarts", "4"),
                search("s_c4x10", "--measure", "both", "--restarts", "4"),
                search("s_c32x96", "--measure", "spectral", "--restarts", "0"),
            ),
        ),
        # Cluster: analyze on complex Parseval frames with n <= 6, each with
        # the two hidden searches of the Parseval equivalence report.  Below:
        # ``examples`` and analyze on small non-Parseval frames.  Most
        # Parseval frames are complex: on real ones the hidden norm search's
        # cost varies by up to 2x between inputs, which moved the median and
        # the rate by more than a program change would; one real Parseval
        # frame keeps that path measured.
        Workload(
            "certify",
            (
                FrameSpec("p_c3x7", 3, 7, "complex", True, zeros=1),
                FrameSpec("p_c3x8", 3, 8, "complex", True, zeros=1),
                FrameSpec("p_c4x8", 4, 8, "complex", True),
                FrameSpec("p_c4x9", 4, 9, "complex", True, zeros=1),
                FrameSpec("p_c4x10", 4, 10, "complex", True, zeros=2),
                FrameSpec("p_c5x9", 5, 9, "complex", True),
                FrameSpec("p_c5x10", 5, 10, "complex", True),
                FrameSpec("p_c6x12", 6, 12, "complex", True, zeros=2),
                FrameSpec("p_r5x9", 5, 9, "real", True, zeros=1),
                FrameSpec("n_r3x8", 3, 8, "real", False, zeros=1),
                FrameSpec("n_c4x9", 4, 9, "complex", False),
            ),
            (
                EXAMPLES,
                analyze("p_c3x7"),
                analyze("p_c3x8"),
                analyze("n_r3x8"),
                analyze("p_c4x8"),
                analyze("p_c4x9"),
                analyze("p_c4x10"),
                analyze("n_c4x9"),
                analyze("p_c5x9"),
                analyze("p_c5x10"),
                analyze("p_r5x9"),
                analyze("p_c6x12"),
            ),
        ),
        # Cluster: m = 2 on three profiles.  Below: m = 1 on 8x24 and 16x40,
        # and m = 3 on the fallback profile, which has only two indices of
        # positive probability, so each draw must add a zero-mass index.
        # Above: m = 3 on 8x24 and 16x40.
        Workload(
            "channel",
            (
                FrameSpec("c_r8x24", 8, 24, "real", False, zeros=2),
                FrameSpec("c_c8x24", 8, 24, "complex", False, zeros=1),
                FrameSpec("c_c16x40", 16, 40, "complex", False, zeros=3),
                FrameSpec("c_r8x24_two", 8, 24, "real", False, support=2),
            ),
            (
                simulate("c_r8x24", 1, TRIALS),
                simulate("c_r8x24", 2, TRIALS),
                simulate("c_r8x24", 3, TRIALS),
                simulate("c_c8x24", 2, TRIALS),
                simulate("c_c16x40", 1, TRIALS),
                simulate("c_c16x40", 2, TRIALS),
                simulate("c_c16x40", 3, TRIALS),
                simulate("c_r8x24_two", 3, TRIALS),
            ),
        ),
    )
}
