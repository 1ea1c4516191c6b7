"""Reference degree of the normalized symbol map F: T^d -> S^d by a
batched damped Newton search for the preimages of a regular value.

`wilsonindex.symbol_degree` returns the closed-form corner count; this
search finds the preimages without assuming where they are, so the tests
compare the two.
"""

import numpy as np


def _symbol_map(k: np.ndarray, mu: float):
    """F(k) = ((W + mu)/f, sin_1/f, ..., sin_d/f) and the Jacobian of its
    sphere part with respect to k, for n momenta k of shape (n, d):
    F0 (n,), Fv (n, d) and J (n, d, d)."""
    s = np.sin(2 * np.pi * k)
    c = np.cos(2 * np.pi * k)
    w = np.sum(c - 1.0, axis=-1) + mu
    f = np.sqrt(np.sum(s ** 2, axis=-1) + w ** 2)
    F0 = w / f
    Fv = s / f[:, None]
    # df/dk_l = 2 pi s_l (c_l - w)/f
    dfdk = 2 * np.pi * s * (c - w[:, None]) / f[:, None]
    J = (-s[:, :, None] * dfdk[:, None, :]) / (f ** 2)[:, None, None]
    diag = np.arange(k.shape[1])
    J[:, diag, diag] += 2 * np.pi * c / f[:, None]
    return F0, Fv, J


def _newton_roots(d: int, mu: float, target_vec: np.ndarray, target_sign: float,
                  resolution: int):
    """(key, det J) of each distinct preimage, in the order of the first
    seed reaching it; all resolution^d seeds take damped Newton steps at once."""
    k = np.stack(
        np.meshgrid(*([np.arange(resolution) / resolution] * d), indexing="ij"),
        axis=-1,
    ).reshape(-1, d)
    active = np.ones(len(k), dtype=bool)
    converged = np.zeros(len(k), dtype=bool)
    for _ in range(60):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        _, Fv, J = _symbol_map(k[idx], mu)
        r = Fv - target_vec
        done = np.linalg.norm(r, axis=-1) < 1e-12
        converged[idx[done]] = True
        # an exactly singular Jacobian drops its seed; masked before the
        # stacked solve, which would raise for the whole batch
        step_ok = ~done & (np.linalg.det(J) != 0)
        active[idx[~step_ok]] = False
        idx, J, r = idx[step_ok], J[step_ok], r[step_ok]
        step = np.linalg.solve(J, r[:, :, None])[:, :, 0]
        norm = np.linalg.norm(step, axis=-1)
        clip = norm > 0.25
        step[clip] *= (0.25 / norm[clip])[:, None]
        k[idx] = (k[idx] - step) % 1.0
    k = k[converged]
    F0, _, J = _symbol_map(k, mu)
    chart = F0 * target_sign > 0
    keys, J = np.round(k[chart] % 1.0, 6) % 1.0, J[chart]
    roots = []
    while len(keys):
        roots.append((tuple(keys[0]), float(np.linalg.det(J[0]))))
        far = ~np.all(np.abs((keys - keys[0] + 0.5) % 1.0 - 0.5) < 1e-5, axis=-1)
        keys, J = keys[far], J[far]
    return roots


def _degree_once(d: int, mu: float, resolution: int, rng) -> int:
    target_vec = np.zeros(d)
    target_sign = 1.0
    for attempt in range(5):
        roots = _newton_roots(d, mu, target_vec, target_sign, resolution)
        dets = [det for _, det in roots]
        if all(abs(v) > 1e-8 for v in dets):
            return int(sum(np.sign(v) for v in dets))
        # degenerate preimage: nudge the target within the F0 > 0 chart
        target_vec = 0.05 * rng.standard_normal(d)
        target_vec /= max(1.0, 4 * np.linalg.norm(target_vec))
    raise RuntimeError("failed to certify a regular value for the degree")


def newton_degree(d: int, mu: float, resolution: int = 8) -> int:
    """Degree by signed preimage counting at a regular value (default
    (1,0,...,0)), found by Newton's method from a resolution^d seed grid;
    runs two seeding resolutions and demands the same integer."""
    rng = np.random.default_rng(20240801)
    deg1 = _degree_once(d, mu, resolution, rng)
    deg2 = _degree_once(d, mu, 2 * resolution, rng)
    if deg1 != deg2:
        raise RuntimeError(
            f"degree not resolution-independent: {deg1} vs {deg2}")
    return deg1
