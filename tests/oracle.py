"""Independent reference implementations used to cross-check the package.

Everything here is written directly against textbook quantum mechanics with
raw numpy: build the vectors, build the projectors, apply the Born rule.
Nothing imports from entb92, so agreement between the two codebases is
meaningful evidence rather than a tautology.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# elementary states


def ket_z(j):
    v = np.zeros(2, dtype=complex)
    v[j] = 1.0
    return v


def ket_x(j):
    s = 1.0 if j == 0 else -1.0
    return np.array([1.0, s], dtype=complex) / math.sqrt(2.0)


def signal(j, theta):
    b, a = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return b * ket_x(0) + (-1.0) ** j * a * ket_x(1)


def conj_state(k, theta):
    b, a = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return a * ket_x(0) - (-1.0) ** k * b * ket_x(1)


def entangled(theta):
    b, a = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return b * np.kron(ket_x(0), ket_x(0)) + a * np.kron(ket_x(1), ket_x(1))


def proj(v):
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# channels


def depol2(rho, p):
    """Single-qubit depolarizing map."""
    return (1.0 - p) * rho + p / 3.0 * sum(
        s @ rho @ s for s in _PAULIS
    )


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def depol_B(rho4, p):
    """Depolarize only the receiver half of a two-qubit state."""
    eye = np.eye(2, dtype=complex)
    out = (1.0 - p) * rho4
    for s in _PAULIS:
        k = np.kron(eye, s)
        out = out + (p / 3.0) * (k @ rho4 @ k.conj().T)
    return out


def lossy_elements(projs, eta):
    """Two scaled projectors plus the no-click element."""
    els = [eta * m for m in projs]
    els.append((1.0 - eta) * np.eye(2, dtype=complex))
    return els


# ---------------------------------------------------------------------------
# Bell quantities via the Born rule


def pair_grid(rho4, a_els, b_els):
    """3x3 outcome grid for one setting pair: g[i, j] = Tr[rho (A_i x B_j)]."""
    return np.einsum("abcd,ica,jdb->ij", rho4.reshape(2, 2, 2, 2), np.asarray(a_els), np.asarray(b_els)).real


def ch_from_grids(grids):
    """grids[a][b] is a 3x3 outcome grid; target outcome is index 0."""
    p = lambda a, b: grids[a][b][0, 0]
    pa1 = grids[1][0][0, :].sum()
    pb1 = grids[0][1][:, 0].sum()
    return p(1, 1) + p(0, 1) + p(1, 0) - p(0, 0) - pa1 - pb1


def np_ch_value(grids, mode):
    """(S_CH, standard error) of a (2, 2, 3, 3) table by the dense contraction over all 36 cells.

    The bit reference for the package's estimator: a count table's int64
    cells over its int64 pair totals, the marginals P(a1) and P(b1) pooled
    with count weights (halves for a probability table), each pair's nine
    terms summed by numpy and the four pair terms added left to right from 0.
    The error is the multinomial delta method, 0 for a probability table.
    """
    g = np.asarray(grids)
    if mode == "probability":
        n, p, w_a, w_b = None, g, np.full(2, 0.5), np.full(2, 0.5)
    else:
        n = g.sum(axis=(2, 3))
        p, w_a, w_b = g / n[:, :, None, None], n[1] / n[1].sum(), n[:, 1] / n[:, 1].sum()
    coeff = np.zeros((2, 2, 3, 3))
    coeff[:, :, 0, 0] = [[-1.0, 1.0], [1.0, 1.0]]
    coeff[1, :, 0, :] -= w_a[:, None]
    coeff[:, 1, :, 0] -= w_b[:, None]
    mean = (coeff * p).reshape(2, 2, 9).sum(axis=-1)
    second = (coeff ** 2 * p).reshape(2, 2, 9).sum(axis=-1)
    value = sum(mean.ravel().tolist())
    if n is None:
        return value, 0.0
    return value, math.sqrt(sum((np.maximum(second - mean * mean, 0.0) / n).ravel().tolist()))


def np_chsh_value(grids, mode):
    """(S_CHSH, standard error) of a (2, 2, 3, 3) table from its four correlators.

    The bit reference for ``chsh_value``: a count table's int64 cells over
    its int64 pair totals, each correlator E_ij numpy's sum of the pair's
    nine cells signed +1 on (target, target) and (no target, no target) and
    -1 elsewhere, S = E11 + E01 + E10 - E00, and the multinomial delta-method
    error over the variances 1 - E_ij^2, 0 for a probability table.
    """
    g = np.asarray(grids)
    n = None if mode == "probability" else g.sum(axis=(2, 3))
    p = g if n is None else g / n[:, :, None, None]
    side = np.array([1.0, -1.0, -1.0])
    corr = (np.outer(side, side) * p).reshape(2, 2, 9).sum(axis=-1)
    (e00, e01), (e10, e11) = corr.tolist()
    if n is None:
        return e11 + e01 + e10 - e00, 0.0
    return e11 + e01 + e10 - e00, math.sqrt(sum((np.maximum(1.0 - corr * corr, 0.0) / n).ravel().tolist()))


def ch_born(theta, bob_theta=None, eta_a=1.0, eta_b=1.0, rho=None):
    """Clauser-Horne value computed end to end from density matrices."""
    if bob_theta is None:
        bob_theta = theta
    if rho is None:
        rho = proj(entangled(theta))
    a_sets = [
        lossy_elements([proj(ket_z(0)), proj(ket_z(1))], eta_a),
        lossy_elements([proj(ket_x(1)), proj(ket_x(0))], eta_a),
    ]
    b_sets = [
        lossy_elements([proj(conj_state(k, bob_theta)),
                        proj(signal(k, bob_theta))], eta_b)
        for k in (0, 1)
    ]
    grids = [[pair_grid(rho, a, b) for b in b_sets] for a in a_sets]
    return ch_from_grids(grids)


def ch_closed(theta):
    c = math.cos(theta)
    return 0.5 * c * (1.0 - c)


def ch_max_closed(theta):
    s = math.sin(theta)
    return 0.5 * (math.sqrt(s * s + 1.0) - 1.0)


def ch_loss_closed(theta, eta_a, eta_b):
    s = math.sin(theta)
    sh = math.sin(theta / 2.0)
    return (eta_a - 0.5) * eta_b * s * s - eta_a * sh * sh


def chsh_from_grids(grids):
    total = 0.0
    for a in range(2):
        for b in range(2):
            g = grids[a][b]
            pa = g[0, :].sum()
            pb = g[:, 0].sum()
            e = 4.0 * g[0, 0] - 2.0 * pa - 2.0 * pb + 1.0
            total += e if (a, b) != (0, 0) else -e
    return total


# ---------------------------------------------------------------------------
# rates


def h2(q):
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def gain_ch(s, q):
    arg = 1.0 - 4.0 * s - 4.0 * s * s
    return 1.0 - math.log2(1.0 + math.sqrt(max(arg, 0.0))) - h2(q)


def gain_chsh(s, q):
    arg = 2.0 - s * s / 4.0
    return -math.log2(0.5 + 0.5 * math.sqrt(max(arg, 0.0))) - h2(q)


def qber_closed(theta, p):
    s2 = math.sin(theta) ** 2
    pcon = (1.0 - 4.0 * p / 3.0) * s2 + 4.0 * p / 3.0
    return (2.0 * p / 3.0) / pcon, 0.5 * pcon


def qf_born(theta, p, bob_theta=None):
    """QBER and conclusive fraction from the full measurement pipeline."""
    if bob_theta is None:
        bob_theta = theta
    q_num = 0.0
    pcon = 0.0
    for j in (0, 1):
        rho = depol2(proj(signal(j, theta)), p)
        for k in (0, 1):
            pc = np.trace(rho @ proj(conj_state(k, bob_theta))).real
            pcon += 0.25 * pc
            if k == j:
                q_num += 0.25 * pc
    return q_num / pcon, pcon


def depol_ch_closed(s, p):
    return (1.0 - 4.0 * p / 3.0) * s - 2.0 * p / 3.0


def golden_section_max(fn, lo, hi, tol=1e-8):
    """Maximize a unimodal function on [lo, hi] to within tol in x."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


# ---------------------------------------------------------------------------
# the theta* solver on numpy scalars: the 200-point scan, the analytic slope
# evaluated through numpy's scalar ufuncs, and the bisection to adjacent floats


def np_key_round_weights(theta, phi, p):
    d = 1.0 - 4.0 * p / 3.0
    same = d * np.sin(0.5 * (phi - theta)) ** 2 + 2.0 * p / 3.0
    diff = d * np.sin(0.5 * (phi + theta)) ** 2 + 2.0 * p / 3.0
    return same, diff


def np_qber_and_fraction(same, diff):
    return same / (same + diff), 0.5 * (same + diff)


def np_setting(theta, strategy):
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    if strategy == "fixed_settings":
        return theta, 1.0, 0.5 * cos_t * (1.0 - cos_t), 0.5 * sin_t * (2.0 * cos_t - 1.0)
    root = np.sqrt(sin_t * sin_t + 1.0)
    return np.arctan(sin_t), cos_t / (1.0 + sin_t * sin_t), 0.5 * (root - 1.0), 0.5 * sin_t * cos_t / root


def np_closed_form(theta, p, strategy):
    """(S_CH, QBER, conclusive fraction) as Python floats for a float theta, arrays for an array."""
    phi, _, s_clean, _ = np_setting(theta, strategy)
    out = (depol_ch_closed(s_clean, p), *np_qber_and_fraction(*np_key_round_weights(theta, phi, p)))
    return out if isinstance(theta, np.ndarray) else tuple(map(float, out))


def np_gain_array(s, q):
    inside = (q > 0.0) & (q < 1.0)
    qi = np.where(inside, q, 0.5)
    entropy = np.where(inside, -qi * np.log2(qi) - (1.0 - qi) * np.log2(1.0 - qi), 0.0)
    return 1.0 - np.log2(1.0 + np.sqrt(np.maximum(1.0 - 4.0 * s - 4.0 * s * s, 0.0))) - entropy


def np_gain_slope(theta, p, strategy):
    d = 1.0 - 4.0 * p / 3.0
    phi, dphi, s_clean, ds_clean = np_setting(theta, strategy)
    s = depol_ch_closed(s_clean, p)
    same, diff = np_key_round_weights(theta, phi, p)
    q, _ = np_qber_and_fraction(same, diff)
    r = math.sqrt(1.0 - 4.0 * s - 4.0 * s * s)
    slope = 2.0 * d * ds_clean * (1.0 + 2.0 * s) / (math.log(2.0) * r * (1.0 + r))
    if q > 0.0:
        d_same = 0.5 * d * math.sin(phi - theta) * (dphi - 1.0)
        d_diff = 0.5 * d * math.sin(phi + theta) * (dphi + 1.0)
        dq = (d_same * diff - same * d_diff) / (same + diff) ** 2
        slope -= math.log2((1.0 - q) / q) * dq
    return slope


def bisect_adjacent(f, a, b):
    """Bisect a sign change of f, with f(a) > 0 >= f(b), until [a, b] holds two adjacent floats."""
    mid = 0.5 * (a + b)
    while a < mid < b:
        if f(mid) > 0.0:
            a = mid
        else:
            b = mid
        mid = 0.5 * (a + b)
    return a, b


THETA_GRID = np.linspace(1e-4, math.pi / 2 - 1e-4, 200)


def np_optimal_theta(p, strategy, slope=np_gain_slope):
    """theta* from the grid bracket of the 200-point scan, bisected on ``slope`` (np_gain_slope by default) with a
    call at every midpoint."""
    s, q, _ = np_closed_form(THETA_GRID, p, strategy)
    i = int(np.argmax(np_gain_array(s, q)))
    a, b = map(float, THETA_GRID[[max(i - 1, 0), min(i + 1, len(THETA_GRID) - 1)]])
    if slope(a, p, strategy) <= 0.0:
        return a
    if slope(b, p, strategy) > 0.0:
        return b
    return bisect_adjacent(lambda theta: slope(theta, p, strategy), a, b)[0]


# ---------------------------------------------------------------------------
# unambiguous-discrimination attack


def usd_elements(theta):
    els = [
        0.5 * proj(conj_state(0, theta)),
        0.5 * proj(conj_state(1, theta)),
        0.5 * proj(signal(0, theta)),
        0.5 * proj(signal(1, theta)),
    ]
    return els


def attacked_state(theta):
    """Joint state after the intercept-resend attack.

    Returns (qubit_branch_rho4, alice_vacuum_rho2, vacuum_weight); the qubit
    branch is subnormalized so the two weights sum to one.
    """
    rho = proj(entangled(theta))
    els = usd_elements(theta)
    resend = [signal(1, theta), signal(0, theta), None, None]
    eye = np.eye(2, dtype=complex)
    qubit = np.zeros((4, 4), dtype=complex)
    vac = np.zeros((2, 2), dtype=complex)
    for el, rs in zip(els, resend):
        cond = np.einsum("ikjl,kl->ij", rho.reshape(2, 2, 2, 2), el.T)
        if rs is None:
            vac += cond
        else:
            qubit += np.kron(cond, proj(rs))
    return qubit, vac, np.trace(vac).real


def attacked_ch(theta, eta_a=1.0, eta_b=1.0):
    qubit, vac, _w = attacked_state(theta)
    a_sets = [
        lossy_elements([proj(ket_z(0)), proj(ket_z(1))], eta_a),
        lossy_elements([proj(ket_x(1)), proj(ket_x(0))], eta_a),
    ]
    b_sets = [
        lossy_elements([proj(conj_state(k, theta)), proj(signal(k, theta))],
                       eta_b)
        for k in (0, 1)
    ]
    grids = []
    for a in a_sets:
        row = []
        for b in b_sets:
            g = pair_grid(qubit, a, b)
            for i, ea in enumerate(a):
                g[i, 2] += np.trace(vac @ ea).real
            row.append(g)
        grids.append(row)
    return ch_from_grids(grids)


# ---------------------------------------------------------------------------
# randomized no-signaling tables for bridge checks


def _rand_state(rng, n=4):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _rand_qubit_proj(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    p = proj(v)
    return [p, np.eye(2, dtype=complex) - p]


def random_quantum_grids(rng):
    rho = _rand_state(rng)
    eta_a = rng.uniform(0.3, 1.0)
    eta_b = rng.uniform(0.3, 1.0)
    a_sets = [lossy_elements(_rand_qubit_proj(rng), eta_a) for _ in range(2)]
    b_sets = [lossy_elements(_rand_qubit_proj(rng), eta_b) for _ in range(2)]
    return np.array([[pair_grid(rho, a, b) for b in b_sets] for a in a_sets])


def random_local_grids(rng):
    """Convex mixture of deterministic local strategies, vacuum included."""
    grids = np.zeros((2, 2, 3, 3))
    w = rng.dirichlet(np.ones(81))
    idx = 0
    for a0 in range(3):
        for a1 in range(3):
            for b0 in range(3):
                for b1 in range(3):
                    grids[0, 0, a0, b0] += w[idx]
                    grids[0, 1, a0, b1] += w[idx]
                    grids[1, 0, a1, b0] += w[idx]
                    grids[1, 1, a1, b1] += w[idx]
                    idx += 1
    return grids


def random_no_signaling_grids(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return random_quantum_grids(rng)
    if kind == 1:
        return random_local_grids(rng)
    lam = rng.uniform(0.0, 1.0)
    return lam * random_quantum_grids(rng) + (1.0 - lam) * random_local_grids(rng)


def deterministic_grids(a0, a1, b0, b1):
    """One deterministic local strategy; arguments pick the fixed outcome."""
    grids = np.zeros((2, 2, 3, 3))
    grids[0, 0, a0, b0] = 1.0
    grids[0, 1, a0, b1] = 1.0
    grids[1, 0, a1, b0] = 1.0
    grids[1, 1, a1, b1] = 1.0
    return grids
