"""Reference computations that the benchmark checks kinflow's outputs against.

Every function here is written from the documented recipes (module
docstrings, the paper's formulas) with numpy and scipy only; nothing calls
into kinflow.  Each ``check_*`` returns a list of problems, empty when the
output agrees, so a workload can gather every disagreement of a round.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy import stats
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist
from scipy.special import expit, logsumexp

TIME_FREQS = np.pi * 2.0 ** np.arange(8)
T_CLAMP = 1e-9


# ---------------------------------------------------------------------------
# inputs


def starts(seed: int, m: int, dim: int = 2) -> np.ndarray:
    """Initial states: one standard-normal draw per child of SeedSequence(seed)."""
    return np.array([np.random.default_rng(ss).standard_normal(dim)
                     for ss in np.random.SeedSequence(seed).spawn(m)])


def dataset(kind: str, n: int, seed: int) -> tuple[np.ndarray, list[str]]:
    """The three stratified generators, one child stream per component."""
    if kind == "dense_sparse":
        n_core = int(0.6 * n)
        n_ring = n - n_core
        core_ss, ring_ss = np.random.SeedSequence(seed).spawn(2)
        core = 0.15 * np.random.default_rng(core_ss).standard_normal((n_core, 2))
        rng = np.random.default_rng(ring_ss)
        r = rng.uniform(2.3, 2.7, n_ring)
        theta = rng.uniform(0.0, 2.0 * np.pi, n_ring)
        ring = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        ring += 0.5 * rng.standard_normal((n_ring, 2))
        return (np.concatenate([core, ring]),
                ["dense_core"] * n_core + ["sparse_ring"] * n_ring)
    if kind == "multiscale_clusters":
        n_grp = int(0.2 * n)
        n_center = n - 4 * n_grp
        ss = np.random.SeedSequence(seed).spawn(5)
        parts = [0.6 * np.random.default_rng(ss[0]).standard_normal((n_center, 2))]
        for c, s in zip([(2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.0, -2.0)], ss[1:]):
            parts.append(np.array(c) + 0.08 * np.random.default_rng(s).standard_normal((n_grp, 2)))
        return (np.concatenate(parts),
                ["sparse_center"] * n_center + ["dense_cluster"] * (4 * n_grp))
    if kind == "sandwich":
        n_top = n_bot = int(0.2 * n)
        n_mid = n - n_top - n_bot
        ss = np.random.SeedSequence(seed).spawn(3)
        parts = []
        for s, count, lo, hi, noise in ((ss[0], n_mid, -0.3, 0.3, 0.1),
                                        (ss[1], n_top, 1.5, 2.5, 0.3),
                                        (ss[2], n_bot, -2.5, -1.5, 0.3)):
            rng = np.random.default_rng(s)
            x = rng.uniform(-3.0, 3.0, count)
            y = rng.uniform(lo, hi, count)
            parts.append(np.stack([x, y], axis=1) + noise * rng.standard_normal((count, 2)))
        return (np.concatenate(parts),
                ["dense_band"] * n_mid + ["sparse_band"] * (n_top + n_bot))
    raise ValueError(f"unknown kind {kind!r}")


def read_points_csv(path) -> tuple[np.ndarray, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["x", "y", "stratum"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    body = [r for r in rows[1:] if r]
    return (np.array([[float(r[0]), float(r[1])] for r in body]).reshape(-1, 2),
            [r[2] for r in body])


def check_dataset_csv(path, kind: str, n: int, seed: int) -> list[str]:
    """The CSV holds exactly the generator's points (lossless) and labels."""
    pts, labels = read_points_csv(path)
    ref_pts, ref_labels = dataset(kind, n, seed)
    if pts.shape != ref_pts.shape:
        return [f"{path}: {len(pts)} points, expected {len(ref_pts)}"]
    problems = []
    if not np.array_equal(pts, ref_pts):
        problems.append(f"{path}: points differ from the {kind} recipe "
                        f"(max {np.abs(pts - ref_pts).max():.3g})")
    if labels != ref_labels:
        problems.append(f"{path}: stratum labels differ from the {kind} recipe")
    return problems


# ---------------------------------------------------------------------------
# MLP velocity field from checkpoint tensors


def read_checkpoint(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) per layer from the JSON container, in layer order."""
    with open(path) as fh:
        blob = json.load(fh)
    tensors = {e["name"]: np.array(e["data"], dtype=np.float64).reshape(e["shape"])
               for e in blob["tensors"]}
    n_layers = len(tensors) // 2
    return [(tensors[f"w{i}"], tensors[f"b{i}"]) for i in range(n_layers)]


def mlp_forward(layers, x: np.ndarray, t) -> np.ndarray:
    """Velocity at states x (B, 2), times t (scalar or (B,)): SiLU hidden layers
    on [x, sin(w t), cos(w t) interleaved], w_j = 2^j pi."""
    x = np.atleast_2d(x)
    ts = np.broadcast_to(np.asarray(t, dtype=np.float64), (len(x),))
    phase = ts[:, None] * TIME_FREQS
    enc = np.stack([np.sin(phase), np.cos(phase)], axis=2).reshape(len(x), -1)
    h = np.concatenate([x, enc], axis=1)
    for i, (w, b) in enumerate(layers):
        h = h @ w + b
        if i < len(layers) - 1:
            h = h * expit(h)
    return h


def cfm_loss(layers, points: np.ndarray, batch: int, seed: int) -> float:
    """Bridge regression loss with the documented draw order: indices, t, noise."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(points), batch)
    t = rng.random(batch) * (1.0 - 1e-6)
    eps = rng.standard_normal((batch, 2))
    z = points[idx]
    x_t = t[:, None] * z + (1.0 - t[:, None]) * eps
    resid = mlp_forward(layers, x_t, t) - (z - eps)
    return float((resid ** 2).sum(axis=1).mean())


def check_loss_grad(layers, points, batch: int, seed: int, loss: float,
                    grads: list[tuple[np.ndarray, np.ndarray]],
                    coords: int = 6, h: float = 1e-5) -> list[str]:
    """Loss value and central finite differences on a few parameter coordinates.

    ``grads`` are the program's (weight, bias) gradients for the same draws.
    """
    problems = []
    ref = cfm_loss(layers, points, batch, seed)
    if not math.isclose(loss, ref, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"loss {loss!r} differs from reference {ref!r}")
    pick = np.random.default_rng(seed + 1)
    for _ in range(coords):
        layer = int(pick.integers(len(layers)))
        which = int(pick.integers(2))
        tensor = layers[layer][which]
        flat = int(pick.integers(tensor.size))
        orig = tensor.flat[flat]
        tensor.flat[flat] = orig + h
        up = cfm_loss(layers, points, batch, seed)
        tensor.flat[flat] = orig - h
        down = cfm_loss(layers, points, batch, seed)
        tensor.flat[flat] = orig
        fd = (up - down) / (2.0 * h)
        got = float(grads[layer][which].flat[flat])
        if abs(got - fd) > 1e-6 + 1e-4 * abs(fd):
            name = "wb"[which]
            problems.append(f"d loss/d {name}{layer}[{flat}] = {got!r}, "
                            f"finite difference {fd!r}")
    return problems


# ---------------------------------------------------------------------------
# fields, gains and a batched integrator


def kts_gain(t: float, alpha0: float, beta0: float, k: float = 3.0,
             tau: float = 0.6) -> float:
    """Launch boost before the split, exponential landing damping after it."""
    if t < tau:
        return 1.0 + alpha0 * max(0.0, 1.0 - t / tau)
    return 1.0 - beta0 * math.expm1(k * (t - tau))


class EfmTopK:
    """Closed-form field over atoms, softmax truncated to the K nearest in
    bridge distance ||x - t a_i||, found with a k-d tree on x / t."""

    def __init__(self, atoms: np.ndarray, k: int):
        self.atoms = np.asarray(atoms, dtype=np.float64)
        self.k = min(k, len(self.atoms))
        self.tree = cKDTree(self.atoms)

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        x = np.atleast_2d(x)
        tc = min(max(t, T_CLAMP), 1.0 - T_CLAMP)
        _, idx = self.tree.query(x / tc, k=self.k)
        idx = idx.reshape(len(x), -1)
        sel = self.atoms[idx]                                 # (B, K, d)
        logw = -((x[:, None, :] - tc * sel) ** 2).sum(axis=2) / (2.0 * (1.0 - tc) ** 2)
        w = np.exp(logw - logsumexp(logw, axis=1, keepdims=True))
        return (np.einsum("bk,bkd->bd", w, sel) - x) / (1.0 - t)


def integrate(field, x0: np.ndarray, method: str, steps: int, delta_cut: float,
              gain=None, tau_split: float = 0.6) -> dict:
    """All trajectories at once on the uniform grid over [0, 1 - delta_cut].

    Power is ||v||^2 of the evaluation that moves the state (Euler: left end,
    midpoint: the midpoint); energy is half of power times dt, split by the
    step's left time at ``tau_split``.
    """
    x = np.array(x0, dtype=np.float64)
    dt = (1.0 - delta_cut) / steps
    times = np.linspace(0.0, 1.0 - delta_cut, steps + 1)
    eta = gain or (lambda t: 1.0)
    states = [x]
    vels = []
    for t in times[:-1]:
        if method == "euler":
            v = eta(t) * field(x, t)
        else:
            v_left = eta(t) * field(x, t)
            tm = t + 0.5 * dt
            v = eta(tm) * field(x + 0.5 * dt * v_left, tm)
        x = x + dt * v
        vels.append(v)
        states.append(x)
    vels = np.array(vels)                                     # (N, m, d)
    power = (vels ** 2).sum(axis=2)                           # (N, m)
    early = times[:-1] < tau_split
    kpe_early = 0.5 * dt * power[early].sum(axis=0)
    kpe_late = 0.5 * dt * power[~early].sum(axis=0)
    return {"times": times, "states": np.array(states), "velocities": vels,
            "power": power, "kpe_early": kpe_early, "kpe_late": kpe_late,
            "kpe": kpe_early + kpe_late, "endpoints": x}


def _close(a, b, rel: float, abs_: float) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= abs_ + rel * np.abs(b)))


def check_batch(summary: dict, ref: dict, rel: float = 1e-8,
                abs_: float = 1e-9) -> list[str]:
    """Per-trajectory energies and endpoints of a summary.json against a
    reference integration."""
    trajs = summary["trajectories"]
    m = len(ref["kpe"])
    if len(trajs) != m:
        return [f"summary holds {len(trajs)} trajectories, expected {m}"]
    problems = []
    for key in ("kpe", "kpe_early", "kpe_late"):
        got = [tr[key] for tr in trajs]
        if not _close(got, ref[key], rel, abs_):
            problems.append(f"summary {key} differs from the reference integration")
    if not _close([tr["endpoint"] for tr in trajs], ref["endpoints"], rel, abs_):
        problems.append("summary endpoints differ from the reference integration")
    return problems


def read_traces(path) -> np.ndarray:
    """Rows traj_id, t, x, y, power, cum_kpe as one float array."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["traj_id", "t", "x", "y", "power", "cum_kpe"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return np.array([[float(v) for v in r] for r in rows[1:] if r])


def check_trace_rows(rows: np.ndarray, ref: dict, rel: float = 1e-8,
                     abs_: float = 1e-9) -> list[str]:
    """A trace table (as written by save_traces, or rebuilt from load_traces)
    against a reference integration."""
    n_steps, m = ref["power"].shape
    if rows.shape != (m * (n_steps + 1), 6):
        return [f"trace table has shape {rows.shape}, expected {(m * (n_steps + 1), 6)}"]
    dt = ref["times"][1] - ref["times"][0]
    power = np.vstack([np.zeros(m), ref["power"]])            # (N+1, m)
    want = np.column_stack([
        np.repeat(np.arange(m), n_steps + 1),
        np.tile(ref["times"], m),
        ref["states"][:, :, 0].T.ravel(),
        ref["states"][:, :, 1].T.ravel(),
        power.T.ravel(),
        np.cumsum(0.5 * dt * power, axis=0).T.ravel()])
    problems = []
    for col, name in enumerate(("traj_id", "t", "x", "y", "power", "cum_kpe")):
        if not _close(rows[:, col], want[:, col], rel, abs_):
            problems.append(f"trace column {name} differs from the reference integration")
    return problems


def check_starts(states0: np.ndarray, seed: int) -> list[str]:
    ref = starts(seed, len(states0), states0.shape[1])
    if not np.array_equal(states0, ref):
        return [f"initial states are not the SeedSequence({seed}).spawn(m) draws"]
    return []


def check_efm_steps(field: EfmTopK, states: np.ndarray, velocities: np.ndarray,
                    times: np.ndarray, rel: float = 1e-8) -> list[str]:
    """Each recorded midpoint step against the closed-form field.

    ``states`` (N+1, m, d) and ``velocities`` (N, m, d) are the program's.  From
    each recorded state the reference takes the left stage, then the midpoint
    stage, and compares that velocity and the next state.
    """
    dt = times[1] - times[0]
    worst_v = worst_x = 0.0
    for j, t in enumerate(times[:-1]):
        x = states[j]
        v_left = field(x, t)
        v_mid = field(x + 0.5 * dt * v_left, t + 0.5 * dt)
        scale = 1.0 + np.abs(v_mid)
        worst_v = max(worst_v, float((np.abs(velocities[j] - v_mid) / scale).max()))
        step = np.abs(states[j + 1] - (x + dt * v_mid)) / (1.0 + np.abs(x) + dt * scale)
        worst_x = max(worst_x, float(step.max()))
    problems = []
    if worst_v > rel:
        problems.append(f"midpoint velocities differ from closed-form top-K EFM "
                        f"(worst scaled error {worst_v:.3g})")
    if worst_x > rel:
        problems.append(f"states do not follow the midpoint rule with the closed-form "
                        f"field (worst scaled error {worst_x:.3g})")
    return problems


def check_energy_accounting(velocities: np.ndarray, times: np.ndarray,
                            kpe: np.ndarray, kpe_early: np.ndarray,
                            kpe_late: np.ndarray, tau_split: float = 0.6) -> list[str]:
    """KPE = 1/2 sum ||v||^2 dt over the recorded velocities, split at tau."""
    dt = times[1] - times[0]
    power = (velocities ** 2).sum(axis=2)
    early = times[:-1] < tau_split
    ref_e = 0.5 * dt * power[early].sum(axis=0)
    ref_l = 0.5 * dt * power[~early].sum(axis=0)
    problems = []
    for name, got, want in (("kpe_early", kpe_early, ref_e),
                            ("kpe_late", kpe_late, ref_l),
                            ("kpe", kpe, ref_e + ref_l)):
        if not _close(got, want, 1e-10, 1e-12):
            problems.append(f"{name} is not half the summed power times dt")
    return problems


def check_collapse(endpoints: np.ndarray, atoms: np.ndarray,
                   median_max: float = 1e-2, max_max: float = 5e-2) -> list[str]:
    """The closed-form flow memorizes: every endpoint lies near a training atom."""
    d, _ = cKDTree(atoms).query(endpoints)
    if np.median(d) > median_max or d.max() > max_max:
        return [f"EFM endpoints are not at training atoms: median distance "
                f"{np.median(d):.3g}, max {d.max():.3g}"]
    return []


# ---------------------------------------------------------------------------
# statistics


def f_mem(generated: np.ndarray, train: np.ndarray, tau_gap: float = 1.0 / 3.0,
          k_mem: int = 2) -> tuple[float, int]:
    """Memorized fraction (d_1 / d_k < tau) and how many ratios sit within
    1e-9 of tau, where rounding may decide the side."""
    d, _ = cKDTree(train).query(generated, k=k_mem)
    d1, dk = d[:, 0], d[:, k_mem - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dk > 0, d1 / dk, 0.0)
    return float((ratio < tau_gap).mean()), int((np.abs(ratio - tau_gap) < 1e-9).sum())


def w2(a: np.ndarray, b: np.ndarray) -> float:
    cost = cdist(a, b, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def check_memorization_and_w2(got_f_mem: float, got_w2, endpoints: np.ndarray,
                              train: np.ndarray, heldout: np.ndarray | None,
                              where: str) -> list[str]:
    problems = []
    ref_f, borderline = f_mem(endpoints, train)
    if abs(got_f_mem - ref_f) > borderline / len(endpoints) + 1e-12:
        problems.append(f"{where}: f_mem {got_f_mem!r}, reference {ref_f!r}")
    if heldout is not None:
        ref_w2 = w2(endpoints, heldout[:len(endpoints)])
        if got_w2 is None or not math.isclose(got_w2, ref_w2, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{where}: w2 {got_w2!r}, reference {ref_w2!r}")
    return problems


def diagnose(kpes: np.ndarray, endpoints: np.ndarray, train: np.ndarray,
             strata: list[str], heldout: np.ndarray | None, knn_k: int = 50,
             bandwidth: float = 0.1) -> dict:
    """The diagnose report's statistics, recomputed with scipy."""
    tree = cKDTree(train)
    n = len(train)
    r_k = tree.query(endpoints, k=knn_k)[0][:, -1]
    log_knn = np.log(knn_k / (n * math.pi)) - 2.0 * np.log(r_k)
    d2 = cdist(endpoints, train, "sqeuclidean")
    log_kde = logsumexp(-d2 / (2.0 * bandwidth ** 2), axis=1) \
        - np.log(n * 2.0 * math.pi * bandwidth ** 2)
    nearest = tree.query(endpoints, k=1)[1]
    sparse = np.array([strata[i].startswith("sparse") for i in nearest])
    a, b = kpes[sparse], kpes[~sparse]
    mwu = stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic",
                             use_continuity=False)
    u_dense = stats.mannwhitneyu(b, a, method="asymptotic").statistic
    t_stat = stats.ttest_ind(a, b, equal_var=True).statistic
    out = {
        "rho_knn": stats.spearmanr(kpes, log_knn).statistic,
        "rho_kde": stats.spearmanr(kpes, log_kde).statistic,
        "mwu_u": mwu.statistic,
        "mwu_p": mwu.pvalue,
        "cliffs_delta": 2.0 * u_dense / (len(a) * len(b)) - 1.0,
        "cohens_d": t_stat * math.sqrt(1.0 / len(a) + 1.0 / len(b)),
        "mean_kpe_sparse": a.mean(),
        "mean_kpe_dense": b.mean(),
        "n": len(kpes),
    }
    out["f_mem"], out["f_mem_borderline"] = f_mem(endpoints, train)
    out["w2"] = None if heldout is None else w2(endpoints, heldout[:len(endpoints)])
    return out


def check_diagnose_report(report: dict, ref: dict, where: str) -> list[str]:
    problems = []
    for key in ("rho_knn", "rho_kde", "mwu_u", "cliffs_delta", "cohens_d",
                "mean_kpe_sparse", "mean_kpe_dense", "w2"):
        got, want = report.get(key), ref[key]
        if want is None or got is None:
            if got is not want:
                problems.append(f"{where}: {key} {got!r}, reference {want!r}")
        elif not math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-10):
            problems.append(f"{where}: {key} {got!r}, reference {want!r}")
    p, ref_p = report.get("mwu_p"), max(ref["mwu_p"], 2.2250738585072014e-308)
    if p is None or not math.isclose(p, ref_p, rel_tol=1e-6, abs_tol=1e-300):
        problems.append(f"{where}: mwu_p {p!r}, reference {ref_p!r}")
    if report.get("n") != ref["n"]:
        problems.append(f"{where}: n {report.get('n')!r}, expected {ref['n']}")
    if abs(report.get("f_mem", -1.0) - ref["f_mem"]) > ref["f_mem_borderline"] / ref["n"] + 1e-12:
        problems.append(f"{where}: f_mem {report.get('f_mem')!r}, reference {ref['f_mem']!r}")
    return problems
