"""Output checks that recompute framelab's reported numbers without framelab.

Each ``check_*`` function takes the parsed report and the job's inputs and
returns a list of problems; an empty list means the output is correct.
Erasure values are recomputed by brute force: for every erasure set ``L``
the full ``n x n`` operator ``E_L = G_L diag(q_L) F_L^H`` is built and its
eigenvalues and singular values are taken with numpy.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
# Sets per stacked eigvals/svd call, which bounds the checker's memory.
CHUNK = 512
# m = 3 tables are spot-checked on this many sets (plus the argmax sets).
SPOT_SETS = 12


def load_frame(path: Path) -> np.ndarray:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return matrix_from_rows(doc["vectors"])


def load_probabilities(path: Path) -> np.ndarray:
    return np.array(json.loads(Path(path).read_text(encoding="utf-8"))["probabilities"], dtype=float)


def weights(p: np.ndarray, dim: int) -> np.ndarray:
    total = p.sum()
    return (total / (total - p)) * (p.size - 1) / dim


def canonical_dual(f: np.ndarray) -> np.ndarray:
    return np.linalg.solve(f @ f.conj().T, f)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def set_values(f: np.ndarray, g: np.ndarray, q: np.ndarray, sets) -> tuple[np.ndarray, np.ndarray]:
    """Spectral radius and operator norm of ``E_L`` for each set (0-based)."""
    sets = np.asarray(sets, dtype=np.intp)
    spectral = np.empty(len(sets))
    norm = np.empty(len(sets))
    for start in range(0, len(sets), CHUNK):
        ix = sets[start : start + CHUNK]
        gl = np.moveaxis(g[:, ix], 0, 1)  # (S, n, m)
        fl = np.moveaxis(f[:, ix], 0, 1)
        ops = (gl * q[ix][:, None, :]) @ np.conj(np.swapaxes(fl, 1, 2))
        spectral[start : start + len(ix)] = np.abs(np.linalg.eigvals(ops)).max(axis=1)
        norm[start : start + len(ix)] = np.linalg.svd(ops, compute_uv=False)[:, 0]
    return spectral, norm


def worst_case(f: np.ndarray, g: np.ndarray, q: np.ndarray, m: int) -> dict:
    sets = list(itertools.combinations(range(f.shape[1]), m))
    spectral, norm = set_values(f, g, q, sets)
    return {"spectral": float(spectral.max()), "norm": float(norm.max())}


def _dual_problems(label: str, f: np.ndarray, g: np.ndarray) -> list[str]:
    residual = float(np.max(np.abs(g @ f.conj().T - np.eye(f.shape[0]))))
    if residual > 1e-8:
        return [f"{label}: |G F^H - I| = {residual:.3e}"]
    return []


def matrix_from_rows(rows) -> np.ndarray:
    """Synthesis matrix from rows of ``[re, im]`` pairs, one row per vector."""
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128).T


def check_analyze(report: dict, f: np.ndarray, p: np.ndarray) -> list[str]:
    problems = []
    q = weights(p, f.shape[0])
    g = canonical_dual(f)
    reported_q = np.array(report["weights"]["weights"])
    if not np.allclose(reported_q, q, rtol=REL_TOL, atol=0.0):
        problems.append("weights differ from the recomputed weight numbers")
    reported_g = matrix_from_rows(report["canonical_dual"]["dual_vectors"])
    problems += _dual_problems("canonical dual", f, reported_g)
    if not np.allclose(reported_g, g, rtol=0.0, atol=1e-9 * max(1.0, float(np.abs(g).max()))):
        problems.append("canonical dual differs from S^-1 F")
    by_m: dict[int, dict] = {}
    for entry in report["measures"]:
        by_m.setdefault(entry["m"], {})[entry["kind"]] = entry
    if not by_m:
        problems.append("report has no measures")
    for m, entries in sorted(by_m.items()):
        if m <= 2:
            truth = worst_case(f, g, q, m)
            for kind, entry in entries.items():
                if not close(entry["value"], truth[kind]):
                    problems.append(
                        f"{kind} m={m}: reported {entry['value']!r}, brute force {truth[kind]!r}"
                    )
        for kind, entry in entries.items():
            problems += _table_problems(entry, kind, m, f, g, q)
    ids = [c["condition_id"] for c in report["certificates"]]
    if "parseval_equivalence" not in ids:
        problems.append("certificate list lacks parseval_equivalence")
    return problems


def _table_problems(entry: dict, kind: str, m: int, f, g, q) -> list[str]:
    """The per-set table covers every set, its maximum is the reported value,
    and a seeded sample of its rows (plus the argmax sets) matches brute force."""
    table = entry["per_set_values"]
    count = f.shape[1]
    if len(table) != math.comb(count, m):
        return [f"{kind} m={m}: {len(table)} table rows for {math.comb(count, m)} sets"]
    values = np.array([row["value"] for row in table])
    if not close(float(values.max()), entry["value"]):
        return [f"{kind} m={m}: table maximum differs from the reported value"]
    rng = np.random.default_rng(m * 1000 + count)
    picks = set(rng.choice(len(table), size=min(SPOT_SETS, len(table)), replace=False).tolist())
    argmax = {tuple(s) for s in entry["argmax_sets"]}
    rows = [row for k, row in enumerate(table) if k in picks or tuple(row["indices"]) in argmax]
    spectral, norm = set_values(f, g, q, [[i - 1 for i in row["indices"]] for row in rows])
    truth = spectral if kind == "spectral" else norm
    bad = [row["indices"] for row, t in zip(rows, truth) if not close(row["value"], float(t))]
    return [f"{kind} m={m}: set {bad[0]} differs from brute force"] if bad else []


def _one_erasure_value(kind: str, f: np.ndarray, g: np.ndarray, q: np.ndarray) -> float:
    spectral, norm = set_values(f, g, q, [[i] for i in range(f.shape[1])])
    return float((spectral if kind == "spectral" else norm).max())


def check_search(report: dict, f: np.ndarray, p: np.ndarray) -> list[str]:
    problems = []
    q = weights(p, f.shape[0])
    g0 = canonical_dual(f)
    if not report["searches"]:
        problems.append("report has no searches")
    for entry in report["searches"]:
        kind = entry["kind"]
        g = matrix_from_rows(entry["best_dual"])
        problems += _dual_problems(f"{kind} best dual", f, g)
        if not entry["best_value"] <= entry["canonical_value"]:
            problems.append(f"{kind}: best_value exceeds canonical_value")
        if not close(entry["best_value"], _one_erasure_value(kind, f, g, q)):
            problems.append(f"{kind}: best_value differs from brute force on the best dual")
        if not close(entry["canonical_value"], _one_erasure_value(kind, f, g0, q)):
            problems.append(f"{kind}: canonical_value differs from brute force")
        measures = entry["best_dual_measures"]
        for key, measure in (("spectral_one", "spectral"), ("norm_one", "norm")):
            if not close(measures[key], _one_erasure_value(measure, f, g, q)):
                problems.append(f"{kind}: best dual {key} differs from brute force")
    return problems


def check_simulate(report: dict, f: np.ndarray, p: np.ndarray, m: int, trials: int) -> list[str]:
    problems = []
    sim = report["simulation"]
    bound = report["worst_case"]
    if sim["m"] != m or sim["trials"] != trials or sum(sim["histogram_counts"]) != trials:
        problems.append("simulation size differs from the request")
    if bound["within_bound"] is not True:
        problems.append("within_bound is not true")
    if not sim["max_error"] <= bound["norm_value"] * (1.0 + 1e-12):
        problems.append("max_error exceeds the worst-case norm value")
    if not 0.0 <= sim["mean_error"] <= sim["max_error"]:
        problems.append("mean_error outside [0, max_error]")
    truth = worst_case(f, canonical_dual(f), weights(p, f.shape[0]), m)["norm"]
    if not close(bound["norm_value"], truth):
        problems.append(f"norm_value {bound['norm_value']!r} differs from brute force {truth!r}")
    return problems


def check_examples(report: dict) -> list[str]:
    problems = []
    if report.get("all_pass") is not True:
        problems.append("all_pass is not true")
    failed = [f"{c['example']}.{c['quantity']}" for c in report.get("checks", []) if not c["passed"]]
    if failed or not report.get("checks"):
        problems.append(f"failed example checks: {failed}")
    return problems


def check_report(kind: str, stdout: bytes, argv, directory: Path, spec: str | None) -> list[str]:
    """Parse a job's stdout and run the check named ``kind``."""
    try:
        report = json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"stdout is not a JSON report: {exc}"]
    if report.get("report") != kind:
        return [f"expected a {kind} report, got {report.get('report')!r}"]
    try:
        if kind == "examples":
            return check_examples(report)
        f = load_frame(directory / f"{spec}.frame.json")
        p = load_probabilities(directory / f"{spec}.probs.json")
        if kind == "analyze":
            return check_analyze(report, f, p)
        if kind == "search":
            return check_search(report, f, p)
        args = list(argv)
        m = int(args[args.index("--m") + 1])
        trials = int(args[args.index("--trials") + 1])
        return check_simulate(report, f, p, m, trials)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed {kind} report: {exc!r}"]
