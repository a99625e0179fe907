"""Checks of CLI outputs that do not rely on jostspec's own algorithms.

Each check returns a `Verdict`.  `problems` are outputs that are wrong
whatever the program reported (malformed or non-finite CSV, an exit code that
contradicts the CSV).  `inaccurate` marks a result that disagrees with an
independent reference; it makes the op fail, and it makes the run incorrect
only when the program did not flag it itself (exit 3 or a warning).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Key formula / oracle agreement threshold for oracle_agree_frac.
AGREE_REL_ERR = 1e-5
# Band edges from the CSV against the q x q eigenproblems, which agree with
# every correctly found edge to about 1e-12; closed gaps in the reference
# merge below MERGE_GAP.
EDGE_TOL = 1e-9
MERGE_GAP = 1e-9

CERTIFICATES = (
    "floquet_strip_bound",
    "w_square_summability",
    "diagonal_product_bound",
    "harmonic_hypotheses",
)


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    inaccurate: bool = False
    agree: int = 0
    compared: int = 0
    edge_err: float = 0.0


def parse_csv(data):
    """Split CSV bytes into metadata tokens, the column header and the rows."""
    meta = {}
    lines = data.decode("utf-8").splitlines()
    body = []
    for line in lines:
        if line.startswith("#"):
            for token in line[1:].split():
                key, _, value = token.partition("=")
                meta[key] = value
        else:
            body.append(line.split(","))
    if not body:
        return meta, [], []
    return meta, body[0], body[1:]


def _floats(rows, column, verdict):
    values = []
    for row in rows:
        try:
            values.append(float(row[column]))
        except (IndexError, ValueError):
            verdict.problems.append(f"unreadable value in column {column}: {row}")
            return None
    if not all(math.isfinite(v) for v in values):
        verdict.problems.append(f"non-finite value in column {column}")
        return None
    return values


def reference_bands(a, b):
    """Bands of the q-periodic Jacobi operator from its periodic and
    antiperiodic q x q eigenproblems (discriminant = +2 and -2)."""
    q = len(a)
    edges = []
    for sign in (1.0, -1.0):
        m = np.diag(np.asarray(b, dtype=float))
        for k in range(q - 1):
            m[k, k + 1] += a[k]
            m[k + 1, k] += a[k]
        m[q - 1, 0] += sign * a[q - 1]
        m[0, q - 1] += sign * a[q - 1]
        edges.extend(np.linalg.eigvalsh(m))
    edges.sort()
    bands = []
    for lo, hi in zip(edges[0::2], edges[1::2]):
        if bands and lo - bands[-1][1] <= MERGE_GAP:
            bands[-1][1] = hi
        else:
            bands.append([lo, hi])
    return bands


def check_bands(op, code, data):
    verdict = Verdict()
    if code != 0:
        verdict.problems.append(f"bands exited {code}")
        return verdict
    _, header, rows = parse_csv(data)
    if header != ["lo", "hi"]:
        verdict.problems.append(f"unexpected bands header {header}")
        return verdict
    lo, hi = _floats(rows, 0, verdict), _floats(rows, 1, verdict)
    if lo is None or hi is None:
        return verdict
    got = [x for pair in zip(lo, hi) for x in pair]
    if not got:
        verdict.problems.append("bands CSV lists no band")
        return verdict
    ref = [x for pair in reference_bands(op.a, op.b) for x in pair]
    # Hausdorff distance between the edge sets: a missed gap shows as its width.
    verdict.edge_err = max(
        max(min(abs(r - g) for g in got) for r in ref),
        max(min(abs(r - g) for r in ref) for g in got),
    )
    verdict.inaccurate = len(got) != len(ref) or verdict.edge_err > EDGE_TOL
    return verdict


def check_compare(code, data, grid_points):
    verdict = Verdict()
    meta, header, rows = parse_csv(data)
    if header != ["E", "density_key", "density_oracle", "rel_err"]:
        verdict.problems.append(f"unexpected compare header {header}")
        return verdict
    cols = [_floats(rows, k, verdict) for k in range(4)]
    if verdict.problems:
        return verdict
    energy, key, oracle, rel = cols
    if len(energy) != grid_points or any(b <= a for a, b in zip(energy, energy[1:])):
        verdict.problems.append("compare grid is not the requested increasing grid")
    if min(key) <= 0.0 or min(oracle) < 0.0:
        verdict.problems.append("negative density, or a zero key-formula density")
    mine = [abs(k - o) / max(abs(k), 1e-300) for k, o in zip(key, oracle)]
    if any(abs(m - r) > 1e-12 * max(m, 1e-300) for m, r in zip(mine, rel)):
        verdict.problems.append("rel_err column does not match the two densities")
    try:
        worst, tol = float(meta["max_rel_err"]), float(meta["tol"])
    except (KeyError, ValueError):
        verdict.problems.append("compare header lacks max_rel_err or tol")
        return verdict
    if worst != max(mine) or code != (0 if worst < tol else 3):
        verdict.problems.append(f"exit {code} contradicts max_rel_err={worst} tol={tol}")
    verdict.compared = len(mine)
    verdict.agree = sum(m < AGREE_REL_ERR for m in mine)
    verdict.inaccurate = verdict.agree < verdict.compared
    return verdict


def check_entropy(code, data, n_list):
    verdict = Verdict()
    if code != 0:
        verdict.problems.append(f"entropy exited {code}")
        return verdict
    _, header, rows = parse_csv(data)
    if header != ["N", "I_lo", "I_hi", "value", "quad_order"]:
        verdict.problems.append(f"unexpected entropy header {header}")
        return verdict
    for column in range(5):
        _floats(rows, column, verdict)
    if not verdict.problems and [int(r[0]) for r in rows] != [n for n in n_list for _ in range(2)]:
        verdict.problems.append("entropy rows do not follow N_list")
    return verdict


def check_certify(code, data):
    verdict = Verdict()
    _, header, rows = parse_csv(data)
    if header != ["name", "passed", "constant_name", "constant_value", "worst_E", "worst_y"]:
        verdict.problems.append(f"unexpected certify header {header}")
        return verdict
    if any(len(r) != len(header) for r in rows):
        verdict.problems.append("certify row with a missing column")
        return verdict
    names = {r[0] for r in rows}
    if names != set(CERTIFICATES):
        verdict.problems.append(f"certificates reported: {sorted(names)}")
    _floats(rows, 3, verdict)
    for column in (4, 5):
        _floats([r for r in rows if r[column] != ""], column, verdict)
    any_failed = any(r[1] != "true" for r in rows)
    if code != (3 if any_failed else 0):
        verdict.problems.append(f"exit {code} contradicts the certificate verdicts")
    return verdict
