"""Independent oracles for every benchmark op, and the known-defect signatures.

Each checker derives the expected answer from the op's generated inputs,
never from ``terraspec`` itself:

* bounded/compact verdicts and operator norms: a truth table worked out by
  hand from c_n = s_n a_n sum_{k<=n} 1/r_k for each family pair;
* c_n samples, product ratios and eigenvector entries: closed forms
  evaluated with 50-digit mpmath (Gamma-function products, binomials);
* labels: the disk partition rules of the fine spectrum, with membership
  in S decided exactly from k = chi / lambda in rational arithmetic;
* resolvent entries and smallest singular values: forward substitution
  with ``scipy.linalg.solve_triangular`` on a matrix the oracle builds;
* s-numbers: LAPACK's QR-iteration SVD (``gesvd``), where the program uses
  divide and conquer.

A disagreement is *explained* when it matches the signature of a known
defect; the run's ``correct`` flag is false as soon as one is not.
Tolerance bands around documented decision thresholds (the snap band of S,
the boundary band of the disk, knife-edge exponents) accept either answer.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg

#: relative tolerance for oracle-checked values
RTOL = 1e-9

#: the program's snap tolerance for lambda in S (spectrum.SNAP_TOL, documented)
SNAP = 1e-13

#: depth to which the program scans the diagonal by default
SCAN_DEPTH = 10_000

#: references below this are compared by magnitude only (doubles lose precision)
UNDERFLOW = 1e-290

DEFECTS = {
    "closure_boundary": "grid node rounding to ~1e-17 raises closure-boundary-unsupported",
    "scan_depth": "S-membership stops at the 1e4 scan depth (a_k, k > 1e4, reported off S)",
    "norm_underreport": "norm is the scanned supremum when c_n only rises to its limit",
    "snap_tolerance": "ratio_band raises lambda-in-S where classify_point says off S",
}


@dataclass
class Check:
    """Outcome of checking one op."""

    status: str = "ok"  # ok | wrong | failed
    issues: list = field(default_factory=list)  # (defect or None, description)
    errs: list = field(default_factory=list)  # relative errors of checked values
    inconclusive: bool = False

    def wrong(self, what: str, defect: str | None = None) -> None:
        if self.status == "ok":
            self.status = "wrong"
        self.issues.append((defect, what))

    def fail(self, what: str, defect: str | None = None) -> None:
        self.status = "failed"
        self.issues.append((defect, what))

    def close(self, got, want, what: str, rtol: float = RTOL, defect: str | None = None) -> None:
        """Compare a value with its reference and record the relative error."""
        if got is None or not np.isfinite(complex(got)):
            self.wrong(f"{what}: got {got!r}, want {float(abs(want)):.17g}", defect)
            return
        if abs(want) < UNDERFLOW:  # below the normal doubles only the magnitude is checked
            if abs(complex(got)) > 1e3 * UNDERFLOW:
                self.wrong(f"{what}: got {got!r}, want {complex(want)!r}", defect)
            return
        diff = abs(complex(got) - complex(want))
        scale = abs(complex(want))
        if scale > 0:
            self.errs.append(diff / scale)
        if diff > rtol * scale:
            self.wrong(f"{what}: got {got!r}, want {complex(want)!r}", defect)

    @property
    def unexplained(self) -> list[str]:
        return [what for defect, what in self.issues if defect is None]

    @property
    def defects(self) -> list[str]:
        return sorted({defect for defect, _ in self.issues if defect})


def _cli_failure(chk: Check, out) -> None:
    chk.fail(f"exit {out.exit} {out.error or ''}: {out.stderr.strip()[:200]}")


def _mpf(x) -> mpmath.mpf:
    return mpmath.mpf(float(x))


# ---------------------------------------------------------------- criterion scan


def _mp_sequence(spec: dict):
    """n -> exact value of a JSON sequence spec (float parameters taken exactly)."""
    fam, par = spec["family"], spec.get("params", {})
    if fam == "cesaro_scaled":
        chi = _mpf(par["chi"])
        return lambda n: chi / n
    if fam in ("p_cesaro", "power_weight"):
        e = _mpf(par["p"] if fam == "p_cesaro" else par["beta"])
        return lambda n: mpmath.power(n, -e)
    if fam == "log_reciprocal":
        return lambda n: 1 / mpmath.log(n + 1)
    if fam == "geometric":
        rho = _mpf(par["ratio"])
        return lambda n: mpmath.power(rho, n)
    if fam == "constant":
        v = _mpf(par["value"])
        return lambda n: v
    if fam == "table":
        vals = par["values"]
        return lambda n: _mpf(vals[n - 1])
    raise ValueError(fam)


def _mp_reciprocal_sum(spec: dict):
    """n -> sum_{k<=n} 1/r_k in closed form (power weights: exactly rounded sum)."""
    fam, par = spec["family"], spec.get("params", {})
    if fam == "constant":
        v = _mpf(par["value"])
        return lambda n: n / v
    if fam == "geometric":
        rho = _mpf(par["ratio"])
        return lambda n: (mpmath.power(rho, -n) - 1) / (1 - rho)
    if fam == "power_weight":
        beta = float(par["beta"])
        # terms k**beta are within 2 ulp; fsum adds them exactly rounded
        return lambda n: _mpf(math.fsum(np.arange(1, n + 1, dtype=float) ** beta))
    raise ValueError(fam)


class CriterionModel:
    """Exact c_n and the hand-derived verdict of one classify op."""

    def __init__(self, op: dict):
        self.op = op
        self.n_max = op["n_max"] if "n_max" in op else op["config"]["n_max"]
        if op["kind"] == "classify":
            cfg = op["config"]
            self.a = _mp_sequence(cfg["a"])
            self.s = _mp_sequence(cfg["s"])
            self.rsum = _mp_reciprocal_sum(cfg["r"])
            self.tag = op["family"]
        else:
            recipe = op["recipe"]
            v_r = _mpf(op["v_r"])
            self.rsum = lambda n: n / v_r
            if recipe == "power":
                p = _mpf(op["p"])
                self.a = lambda n: mpmath.power(n, -p)
            else:
                chi = _mpf(op["chi"])
                self.a = lambda n: chi / n
            if recipe == "rising":
                big_l, h = _mpf(op["L"]), _mpf(op["h"])
                self.s = lambda n: big_l * n / (n + h)
            else:
                v_s = _mpf(op["v_s"])
                self.s = lambda n: v_s
            self.tag = "custom_" + recipe

    def c(self, n: int) -> mpmath.mpf:
        with mpmath.workdps(50):
            return self.s(n) * self.a(n) * self.rsum(n)

    def truth(self):
        """(bounded, compact, sup c_n, sup over n <= n_max, decisive route).

        Derived per family pair:
        cesaro/const: c_n = chi v_s / v_r;  cesaro/power s: c_n = chi n^-b / v_r;
        p_cesaro (and tables of 1/n^p): c_n = (v_s/v_r) n^(1-p);
        power pair: c_n <= v_s n^(beta_r + 1 - beta_a), c_1 = v_s;
        1/log(n+1) against geometric r, s: c_n ~ (rho_s/rho_r)^n / log n;
        rising s_n = L n/(n+h): c_n = L chi n/((n+h) v_r) increases to L chi / v_r.
        """
        op, tag = self.op, self.tag
        cfg = op.get("config", {})
        with mpmath.workdps(50):
            if tag in ("cesaro_const", "custom_cesaro"):
                sup = self.c(1)
                return "yes", "no", sup, sup, tag == "cesaro_const"
            if tag in ("cesaro_power", "custom_power"):
                sup = self.c(1)
                return "yes", "yes", sup, sup, tag == "cesaro_power"
            if tag in ("p_cesaro", "table"):
                p = cfg["a"]["params"]["p"] if tag == "p_cesaro" else op["p"]
                sup = self.c(1)
                decisive = tag == "p_cesaro"
                if p < 1.0:
                    return "no", "no", None, None, decisive
                return "yes", ("no" if p == 1.0 else "yes"), sup, sup, decisive
            if tag == "power_pair":
                e = (Fraction(cfg["r"]["params"]["beta"]) + 1
                     - Fraction(cfg["a"]["params"]["beta"]))
                if e > 0:
                    return "no", "no", None, None, True
                sup = self.c(1)
                return "yes", ("no" if e == 0 else "yes"), sup, sup, True
            if tag == "log_geo":
                rho_r = cfg["r"]["params"]["ratio"]
                rho_s = cfg["s"]["params"]["ratio"]
                if rho_s > rho_r:
                    return "no", "no", None, None, True
                sup = self._log_geo_sup(rho_r)
                return "yes", "yes", sup, sup, True
            if tag == "custom_rising":
                return "yes", "no", _mpf(op["L"]) * _mpf(op["chi"]) / _mpf(op["v_r"]), \
                    self.c(self.n_max), False
        raise ValueError(tag)

    def _log_geo_sup(self, rho_r: float):
        """max c_n: for rho_s <= rho_r, c_n <= 1/((1 - rho_r) log(n+1)), so the
        maximum over n <= n0 is the supremum once that bound drops below c_1."""
        c1 = self.c(1)
        n0 = max(8, math.ceil(math.exp(1.0 / ((1.0 - rho_r) * float(c1)))))
        return max(self.c(n) for n in range(1, n0 + 1))


def check_classify(op: dict, out, chk: Check) -> None:
    if op["kind"] == "classify":
        if out.exit not in (0, 2) or out.text is None:
            _cli_failure(chk, out)
            return
        rep = json.loads(out.text)["result"]
        bounded, compact, norm = rep["bounded"], rep["compact"], rep["norm"]
        samples = rep["criterion_samples"]
        want_exit = 2 if "inconclusive" in (bounded, compact) else 0
        if out.exit != want_exit:
            chk.fail(f"exit {out.exit}, want {want_exit}")
    else:
        if out.error is not None:
            chk.fail(f"raised {out.error}")
            return
        rep = out.value
        bounded, compact, norm = rep.bounded.value, rep.compact.value, rep.norm
        samples = [list(x) for x in rep.criterion_samples]
    model = CriterionModel(op)
    t_bounded, t_compact, sup, sup_within, decisive = model.truth()
    if (bounded, compact) != (t_bounded, t_compact):
        if "inconclusive" in (bounded, compact) and not decisive:
            chk.inconclusive = True
        else:
            chk.wrong(f"verdict {bounded}/{compact}, want {t_bounded}/{t_compact} ({model.tag})")
    if bounded == "yes" and t_bounded == "yes":
        if norm is None:
            chk.wrong("bounded without a norm")
        elif abs(norm - sup_within) <= RTOL * sup and sup_within != sup:
            chk.close(norm, sup, f"norm ({model.tag})", defect="norm_underreport")
        else:
            chk.close(norm, sup, f"norm ({model.tag})")
    elif bounded == "no" and norm is not None:
        chk.wrong("norm reported for an unbounded operator")
    if samples:
        for j in sorted({0, len(samples) // 2, len(samples) - 1}):
            n, c = samples[j]
            chk.close(c, model.c(int(n)), f"c_{n}")


# ---------------------------------------------------------------- fine spectrum


def _frac(x: float) -> Fraction:
    return Fraction(float(x))


class PointTruth:
    """Exact facts about one lambda for a = chi/n and s_n = n^-beta (beta = 0: constant).

    ``members`` holds the memberships in S a correct answer may report:
    {True} within 0.9 SNAP of some chi/k, {False} beyond 1.1 SNAP, both in
    between.  ``positions`` does the same for the disk, whose documented
    boundary band is relative 1e-12 (``disk_position``).
    """

    def __init__(self, lam: complex, chi: float, beta: float):
        self.lam, self.chi, self.beta = complex(lam), chi, beta
        re, im, c = _frac(self.lam.real), _frac(self.lam.imag), _frac(chi)
        self.zero = re == 0 and im == 0
        self.k = None
        self.members = {False}
        if im == 0 and re > 0:
            k0 = c / re
            best = None
            for k in {max(1, math.floor(k0)), max(1, math.ceil(k0))}:
                rel = abs(re * k / c - 1)
                if best is None or rel < best[0]:
                    best = (rel, k)
            rel, self.k = best
            self.rel = rel
            if rel <= Fraction(SNAP) * Fraction(9, 10):
                self.members = {True}
            elif rel < Fraction(SNAP) * Fraction(11, 10):
                self.members = {True, False}
        if self.zero:
            self.positions = {"boundary"}
            return
        r = c / 2
        g = ((re - r) ** 2 + im**2 - r * r) / (r * r)  # ~ 2 (d - r) / r
        # boundary when |d - r| <= 1e-12 r (|g| <= 2e-12) or, by the
        # equivalent half-plane test, |alpha - 1/chi| <= 1e-12/chi
        # (|g| <= 4e-12 |lambda|^2 / chi^2)
        band = max(2, 4 * (re * re + im * im) / (c * c)) * Fraction(1, 10**12)
        side = "interior" if g < 0 else "exterior"
        if abs(g) <= band * Fraction(95, 100):
            self.positions = {"boundary"}
        elif abs(g) < band * Fraction(105, 100):
            self.positions = {"boundary", side}
        else:
            self.positions = {side}
        self.alpha = re / (re * re + im * im)
        self.alpha_chi = self.alpha * c

    def _series(self) -> set[str]:
        """sum_n n^(beta - alpha chi) converges iff alpha chi > 1 + beta."""
        edge = 1 + _frac(self.beta)
        gap = self.alpha_chi - edge
        if abs(gap) <= Fraction(1, 10**9) * edge:
            return {"yes", "no"}
        return {"yes"} if gap > 0 else {"no"}

    def _a1(self) -> str:
        """a_n s_n n^k = chi n^(k - 1 - beta) -> 0 iff k < 1 + beta."""
        return "yes" if self.k < 1 + self.beta else "no"

    def outcomes(self, members=None) -> set[tuple]:
        """Allowed (label, a1, a2, in_S, s_index, position) of classify_point."""
        if self.zero:
            return {("continuous_candidate", "no", "no", False, None, "boundary")}
        out = set()
        for member in self.members if members is None else members:
            for pos in self.positions:
                if member:
                    a1 = self._a1()
                    label = "point" if a1 == "yes" else "residual"
                    out.add((label, a1, "no", True, self.k, pos))
                    continue
                a2s = self._series() if pos == "interior" else {"no"}
                for a2 in a2s:
                    if a2 == "yes":
                        label = "residual"
                    else:
                        label = {"exterior": "resolvent", "interior": "continuous_candidate",
                                 "boundary": "boundary_unknown"}[pos]
                    out.add((label, "no", a2, False, None, pos))
        return out

    def depth_limited(self) -> bool:
        """True when the exact answer is 'in S' at an index past the scan depth."""
        return self.members == {True} and self.k > SCAN_DEPTH

    def dist(self):
        """Exact distance to the closure of S, and the same restricted to k <= depth."""
        with mpmath.workdps(30):
            lam = mpmath.mpc(self.lam.real, self.lam.imag)
            chi = _mpf(self.chi)
            ks = {1, SCAN_DEPTH}
            if self.lam.real > 0:
                k0 = self.chi / self.lam.real
                ks |= {max(1, math.floor(k0)), max(1, math.ceil(k0))}
            cand = {k: abs(lam - chi / k) for k in ks}
            full = min([abs(lam)] + list(cand.values()))
            limited = min([abs(lam)] + [v for k, v in cand.items() if k <= SCAN_DEPTH])
            return float(full), float(limited)


def _weight_beta(spec: dict) -> float:
    return 0.0 if spec["family"] == "constant" else float(spec["params"]["beta"])


def _check_point(truth: PointTruth, got: tuple, chk: Check, where: str) -> None:
    """got = (label, a1, a2, in_S, s_index, position); None fields are not reported."""

    def match(allowed):
        return any(all(g is None or g == w for g, w in zip(got, row)) for row in allowed)

    if match(truth.outcomes()):
        return
    if truth.depth_limited() and match(truth.outcomes({False})):
        chk.wrong(f"{where}: a_{truth.k} reported off S", defect="scan_depth")
        return
    chk.wrong(f"{where}: got {got}, allowed {sorted(truth.outcomes(), key=str)}")


def _check_alpha_dist(truth: PointTruth, alpha, dist, chk: Check, where: str) -> None:
    if truth.zero:
        if alpha is not None:
            chk.wrong(f"{where}: alpha reported at lambda = 0")
    else:
        chk.close(alpha, float(truth.alpha), f"{where} alpha", rtol=1e-12)
    full, limited = truth.dist()
    atol = 4e-16 * truth.chi
    if abs(dist - full) <= RTOL * full + atol:
        return
    if abs(dist - limited) <= RTOL * limited + atol:
        chk.wrong(f"{where}: dist_to_S limited by the scan depth", defect="scan_depth")
    else:
        chk.wrong(f"{where}: dist_to_S {dist!r}, want {full!r}")


def grid_nodes(block: dict) -> list[complex]:
    """Grid nodes in the program's order (im outer, re inner), as the CLI builds them."""
    res = block["resolution"]
    res = (res, res) if isinstance(res, int) else tuple(res)
    re = np.linspace(*block["re_range"], res[0])
    im = np.linspace(*block["im_range"], res[1])
    return [complex(x, y) for y in im for x in re]


#: grid nodes checked per grid: every real-axis node plus a seeded sample
GRID_SAMPLE = 60


def sample_nodes(nodes: list[complex], index: int) -> list[int]:
    """Indices of the grid nodes the oracle checks.

    Every node on the real axis is checked (S and the disk boundary live
    there); the rest is a seeded sample, which keeps the checks cheaper
    than the grid itself.
    """
    real = [i for i, z in enumerate(nodes) if z.imag == 0]
    rest = [i for i, z in enumerate(nodes) if z.imag != 0]
    take = max(0, GRID_SAMPLE - len(real))
    if take < len(rest):
        rest = list(np.random.default_rng(index).choice(rest, take, replace=False))
    return sorted(real + [int(i) for i in rest])


def _parse_map(text: str, ext: str) -> list[dict]:
    if ext == ".json":
        rows = json.loads(text)["result"]
        return [{"lam": complex(*r["lambda"]), "label": r["label"], "alpha": r["alpha"],
                 "dist": r["dist_to_S"], "a1": r["a1"], "a2": r["a2"]} for r in rows]
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    out = []
    for r in csv.DictReader(io.StringIO("\n".join(lines))):
        out.append({"lam": complex(float(r["re"]), float(r["im"])), "label": r["label"],
                    "alpha": None if r["alpha"] == "nan" else float(r["alpha"]),
                    "dist": float(r["dist_to_S"]), "a1": r["a1"], "a2": r["a2"]})
    return out


def check_spectrum_map(op: dict, out, chk: Check, index: int) -> None:
    cfg = op["config"]
    chi = cfg["a"]["params"]["chi"]
    beta = _weight_beta(cfg["s"])
    nodes = grid_nodes(cfg["spectrum_map"]["grid"])
    if out.exit != 0 or out.text is None:
        tiny = any(0 < abs(z) <= SNAP for z in nodes)
        if out.exit == 1 and "closure-boundary-unsupported" in out.stderr and tiny:
            chk.fail("grid node next to 0 raised closure-boundary-unsupported",
                     defect="closure_boundary")
        else:
            _cli_failure(chk, out)
        return
    rows = _parse_map(out.text, op["ext"])
    if [row["lam"] for row in rows] != nodes:
        chk.wrong("grid rows do not follow the grid nodes")
        return
    for i in sample_nodes(nodes, index):
        row, node = rows[i], nodes[i]
        truth = PointTruth(node, chi, beta)
        where = f"lambda={node!r}"
        _check_point(truth, (row["label"], row["a1"], row["a2"], None, None, None), chk, where)
        _check_alpha_dist(truth, row["alpha"], row["dist"], chk, where)


def check_spectrum_grid(op: dict, out, chk: Check, index: int) -> None:
    if out.error is not None:
        chk.fail(f"raised {out.error}")
        return
    nodes = grid_nodes(op["grid"])
    points = out.value
    beta = _weight_beta(op["s"])
    if [pt.lam for pt in points] != nodes:
        chk.wrong("grid points do not follow the grid nodes")
        return
    for i in sample_nodes(nodes, index):
        pt, node = points[i], nodes[i]
        ev = pt.evidence
        truth = PointTruth(node, op["chi"], beta)
        got = (pt.label.value, ev.a1.value, ev.a2.value, ev.in_S, ev.s_index, ev.disk_position)
        where = f"lambda={node!r}"
        _check_point(truth, got, chk, where)
        _check_alpha_dist(truth, ev.alpha, ev.dist_to_S, chk, where)


def check_point_test(op: dict, out, chk: Check) -> None:
    cfg = op["config"]
    if out.exit != 0 or out.text is None:
        _cli_failure(chk, out)
        return
    chi = cfg["a"]["params"]["chi"]
    beta = _weight_beta(cfg["s"])
    rows = json.loads(out.text)["result"]
    lams = [complex(*z) for z in cfg["point_test"]["lambdas"]]
    if [complex(*r["lambda"]) for r in rows] != lams:
        chk.wrong("point-test rows do not follow the lambda list")
        return
    for row, lam in zip(rows, lams):
        truth = PointTruth(lam, chi, beta)
        where = f"lambda={lam!r}"
        claims_in = not row["point_detail"].startswith("lambda not in S")
        truncates = row["adjoint_detail"].startswith("lambda = a_")
        if claims_in != truncates:
            chk.wrong(f"{where}: point and adjoint tests disagree on S membership")
            continue
        idx = int(row["adjoint_detail"][len("lambda = a_"):].split(",")[0]) if truncates else None
        # point-test reports A1 and the adjoint test for every lambda: an S
        # member always truncates (adjoint yes), an outsider has A1 = no
        label, a1, a2 = row["label"], row["point"], row["adjoint"]
        if claims_in:
            if a2 != "yes":
                chk.wrong(f"{where}: S member without a truncating adjoint eigenvector")
            got = (label, a1, "no", True, idx, None)
        else:
            got = (label, a1, a2, False, None, None)
        _check_point(truth, got, chk, where)


# ---------------------------------------------------------------- sections


def shifted_section(chi: float, n: int, lam: complex) -> np.ndarray:
    """T - lambda I for a_n = chi/n, built by the oracle."""
    a = chi / np.arange(1, n + 1, dtype=float)
    mat = np.tril(np.repeat(a[:, None], n, axis=1)).astype(complex)
    mat[np.diag_indices(n)] -= lam
    return mat


def resolvent_entry(chi: float, lam: complex, n: int, k: int) -> complex:
    """60-digit b_nk (1-based, k <= n) of the inverse of T - lambda I for a_j = chi/j.

    b_nn = 1/(a_n - lambda); below the diagonal
    b_nk = -a_n / (lambda^2 prod_{j=k}^{n} (1 - c/j)), c = chi/lambda, and the
    product is Gamma(n+1-c) Gamma(k) / (Gamma(k-c) Gamma(n+1)).
    """
    with mpmath.workdps(60):
        lam_mp = mpmath.mpc(lam.real, lam.imag)
        a_n = _mpf(chi) / n
        if n == k:
            return complex(1 / (a_n - lam_mp))
        c = _mpf(chi) / lam_mp
        log_prod = (mpmath.loggamma(n + 1 - c) + mpmath.loggamma(k)
                    - mpmath.loggamma(k - c) - mpmath.loggamma(n + 1))
        return complex(-a_n / (lam_mp**2 * mpmath.exp(log_prod)))


def check_resolvent_entries(B: np.ndarray, chi: float, lam: complex, cols, chk: Check) -> None:
    """Columns of the explicit resolvent against forward substitution.

    Forward substitution loses relative accuracy on entries far below the
    column scale; where it disagrees with the program by more than 1e-10,
    the worst entries are refereed by the 60-digit closed form.
    """
    n = B.shape[0]
    mat = shifted_section(chi, n, lam)
    rhs = np.zeros((n, len(cols)), dtype=complex)
    rhs[cols, np.arange(len(cols))] = 1.0
    ref = scipy.linalg.solve_triangular(mat, rhs, lower=True)
    for j, col in enumerate(cols):
        if np.any(B[:col, col] != 0):
            chk.wrong(f"resolvent column {col} has entries above the diagonal")
        x = ref[col:, j]
        rel = np.abs(B[col:, col] - x) / np.abs(x)
        bad = np.flatnonzero(rel > 1e-10)
        chk.errs.append(float(np.delete(rel, bad).max(initial=0.0)))
        for i in bad[np.argsort(rel[bad])[::-1][:20]]:
            row = col + int(i)
            chk.close(B[row, col], resolvent_entry(chi, lam, row + 1, col + 1),
                      f"resolvent entry ({row}, {col})", rtol=1e-10)


def check_resolvent_verify(op: dict, out, chk: Check, index: int) -> None:
    from terraspec import sequences, spectrum

    if out.exit != 0 or out.text is None:
        _cli_failure(chk, out)
        return
    res = json.loads(out.text)["result"]
    block = op["config"]["resolvent_verify"]
    if not (res["passed"] and res["max_residual"] <= block["tol"]
            and res["max_residual"] == max(res["left_residual"], res["right_residual"])):
        chk.wrong(f"residual report inconsistent: {res}")
    chi = op["config"]["a"]["params"]["chi"]
    lam, n = complex(*block["lambda"]), block["n"]
    # the op's inverse, recomputed (the call is deterministic) and checked
    B = spectrum.resolvent_section(lam, sequences.cesaro_scaled(chi), n).entries
    rng = np.random.default_rng(index)
    cols = sorted({0, n - 1, int(rng.integers(n))})
    check_resolvent_entries(B, chi, lam, cols, chk)


def _log_abs_product(c, n: int):
    """log |prod_{k<=n} (1 - c/k)| = log |Gamma(n+1-c) / (Gamma(1-c) Gamma(n+1))|."""
    return mpmath.re(mpmath.loggamma(n + 1 - c) - mpmath.loggamma(1 - c) - mpmath.loggamma(n + 1))


def _near_diagonal(lam: complex, chi: float) -> Fraction | None:
    """Relative distance of a real positive lambda to the nearest chi/k."""
    if lam.imag != 0 or lam.real <= 0:
        return None
    return PointTruth(lam, chi, 0.0).rel


def check_product_band(op: dict, out, chk: Check) -> None:
    cfg = op["config"]
    block = cfg["product_band"]
    chi = cfg["a"]["params"]["chi"]
    lam = complex(*block["lambda"])
    if out.exit not in (0, 2, 3) or out.text is None:
        rel = _near_diagonal(lam, chi)
        if (out.exit == 1 and "lambda-in-S" in out.stderr and rel is not None
                and Fraction(SNAP) * Fraction(11, 10) < rel <= Fraction(1, 10**12)):
            chk.fail("lambda off S (snap band) refused as lambda-in-S", defect="snap_tolerance")
        else:
            _cli_failure(chk, out)
        return
    res = json.loads(out.text)["result"]
    ratios = res["ratios"]
    n_lo, n_hi = block["n_range"]
    probes = []
    n = n_lo
    while n < n_hi:
        probes.append(n)
        n *= 2
    probes.append(n_hi)
    if [int(n) for n, _ in ratios] != probes:
        chk.wrong("ratio probes are not the dyadic n of the range")
        return
    with mpmath.workdps(50):
        lam_mp = mpmath.mpc(lam.real, lam.imag)
        c = _mpf(chi) / lam_mp
        alpha_chi = mpmath.re(1 / lam_mp) * _mpf(chi)
        chk.close(res["exponent"], float(alpha_chi), "exponent", rtol=1e-12)
        e = _mpf(res["exponent"])
        log_ref = [_log_abs_product(c, n) + e * mpmath.log(n) for n in probes]
        for j in sorted({0, len(probes) // 2, len(probes) - 1}):
            chk.close(ratios[j][1], mpmath.exp(log_ref[j]), f"ratio at n={probes[j]}", rtol=1e-8)
    lr = np.array([float(v) for v in log_ref])
    x = np.log(np.array(probes, dtype=float))
    slope = float(np.sum((x - x.mean()) * (lr - lr.mean())) / np.sum((x - x.mean()) ** 2))
    band = math.exp(lr.max() - lr.min())
    verdicts = set()
    for s_tol, b_tol in ((0.018, 900.0), (0.022, 1100.0)):
        verdicts.add("bounded_band" if abs(slope) < s_tol and band < b_tol else "drifting")
    if len(probes) < 3:
        verdicts = {"degenerate"}
    if res["verdict"] not in verdicts:
        chk.wrong(f"verdict {res['verdict']}, want {sorted(verdicts)} (slope {slope:.4g})")
    want_exit = {"bounded_band": 0, "degenerate": 2}.get(res["verdict"], 3)
    if out.exit != want_exit:
        chk.fail(f"exit {out.exit} for verdict {res['verdict']}")
    if op.get("csv"):
        rows = [ln.split(",") for ln in (out.csv_text or "").splitlines()[2:]]
        if [(int(n), float(v)) for n, v in rows] != [(int(n), float(v)) for n, v in ratios]:
            chk.wrong("CSV pairs differ from the JSON ratios")


def _ideal_truth(a: dict, r: dict) -> dict:
    """ideal_ok: a_n r_n -> 0; closed_ok: n a_n r_n -> 0; sup a_i r_i (at i = 1)."""
    ap, rp = a["params"], r["params"]
    if a["family"] == "cesaro_scaled":
        # a_n r_n = chi v / n or chi n^(-1-beta); n a_n r_n = chi v or chi n^-beta
        closed = "yes" if r["family"] == "power_weight" and rp["beta"] > 0 else "no"
        sup = ap["chi"] * (rp["value"] if r["family"] == "constant" else 1.0)
    else:
        # a_n r_n = v n^-p; n a_n r_n = v n^(1-p)
        closed = "yes" if ap["p"] > 1.0 else "no"
        sup = rp["value"]
    norm = "yes" if abs(sup - 1.0) <= 1e-9 else "no"
    return {"ideal_ok": "yes", "closed_ok": closed, "qnorm_normalized": norm, "sup": sup}


def _mp_values(spec: dict, n: int) -> np.ndarray:
    f = _mp_sequence(spec)
    with mpmath.workdps(30):
        return np.array([float(f(k)) for k in range(1, n + 1)])


def check_ideal_qnorm(op: dict, out, chk: Check) -> None:
    if out.exit not in (0, 2) or out.text is None:
        _cli_failure(chk, out)
        return
    cfg = op["config"]
    res = json.loads(out.text)["result"]
    n = cfg["ideal_qnorm"]["section_n"]
    want_exit = 2 if res["stype_member"] == "inconclusive" else 0
    if out.exit != want_exit:
        chk.fail(f"exit {out.exit}, want {want_exit}")
    a = _mp_values(cfg["a"], n)
    r = _mp_values(cfg["r"], n)
    s = _mp_values(cfg["s"], n)
    mat = np.tril(np.repeat((s * a)[:, None], n, axis=1)) / r[None, :]
    snum = scipy.linalg.svd(mat, compute_uv=False, lapack_driver="gesvd")
    prefix = np.array([math.fsum(snum[: i + 1]) for i in range(n)])
    t = np.abs(a * prefix) * r
    q = float(t.max())
    chk.close(res["value"], q, "quasi-norm")
    arg = res["argmax_index"]
    if not (1 <= arg <= n and t[arg - 1] >= q * (1 - RTOL)):
        chk.wrong(f"argmax {arg} is not a maximiser")
    if res["truncation_N"] != n:
        chk.wrong(f"truncation_N {res['truncation_N']}, want {n}")
    if res["tail_status"] not in ("analytic_zero", "negligible", "dominant_possible"):
        chk.wrong(f"tail status {res['tail_status']}")
    for key, want in _ideal_truth(cfg["a"], cfg["r"]).items():
        if key != "sup" and res[key] != want:
            chk.wrong(f"{key} {res[key]}, want {want}")


def check_ideal_axioms(op: dict, out, chk: Check) -> None:
    if out.exit not in (0, 3) or out.text is None:
        _cli_failure(chk, out)
        return
    cfg = op["config"]
    res = json.loads(out.text)["result"]
    block = cfg["ideal_axioms"]
    # s_1 <= Q needs Q >= a_1 r_1 s_1 >= s_1, i.e. sup a_i r_i >= 1
    truth = _ideal_truth(cfg["a"], cfg["r"])
    may_fail = {"lower_bound"} if truth["sup"] < 1.0 else set()
    broken = {k for k, v in res["violations"].items() if v}
    if broken - may_fail or res["total_violations"] != sum(res["violations"].values()):
        chk.wrong(f"axiom violations {res['violations']}")
    if (res["trials"], res["dim"]) != (block["trials"], block["dim"]):
        chk.wrong("trials/dim not echoed")
    if res["normalized"] != truth["qnorm_normalized"]:
        chk.wrong(f"normalized {res['normalized']}, want {truth['qnorm_normalized']}")
    if out.exit != (3 if res["total_violations"] else 0):
        chk.fail(f"exit {out.exit} with {res['total_violations']} violations")


def sigma_min(chi: float, n: int, lam: complex) -> tuple[float, float]:
    """(smallest singular value of T - lambda I, its reliable floor).

    1/sigma_min is the largest singular value of the inverse, which forward
    substitution gives; its square is the top eigenvalue of the Gram matrix.
    Forward substitution is backward stable, so the reference is off by at
    most n eps ||T - lambda I|| / sigma_min relative; above the returned
    floor that is below 1e-7.
    """
    mat = shifted_section(chi, n, lam)
    inv = scipy.linalg.solve_triangular(mat, np.eye(n, dtype=complex), lower=True)
    top = scipy.linalg.eigvalsh(inv.conj().T @ inv, subset_by_index=[n - 1, n - 1])[0]
    return 1.0 / math.sqrt(top), 1e7 * n * 2.2e-16 * float(np.linalg.norm(mat))


def check_pseudospectrum(op: dict, out, chk: Check, index: int) -> None:
    if out.error is not None:
        chk.fail(f"raised {out.error}")
        return
    res = out.value
    re = np.linspace(*op["grid"]["re_range"], op["grid"]["resolution"])
    im = np.linspace(*op["grid"]["im_range"], op["grid"]["resolution"])
    sig = res.sigma_min
    if sig.shape != (len(im), len(re)) or not np.array_equal(res.re_values, re):
        chk.wrong("pseudospectrum grid shape or nodes differ")
        return
    for eps, member in res.membership.items():
        if not np.array_equal(member, sig <= eps):
            chk.wrong(f"membership for eps={eps} differs from sigma_min <= eps")
    rng = np.random.default_rng(index)
    for _ in range(2):
        i, j = int(rng.integers(len(im))), int(rng.integers(len(re)))
        ref, floor = sigma_min(op["chi"], op["n"], complex(re[j], im[i]))
        if ref > floor:
            chk.close(sig[i, j], ref, f"sigma_min at ({re[j]}, {im[i]})", rtol=1e-7)


def check_eigenvector(op: dict, out, chk: Check, index: int) -> None:
    """lambda = a_m = chi/m: x_n = (m/n) binomial(n, m) for n >= m, zeros before."""
    if out.error is not None:
        chk.fail(f"raised {out.error}")
        return
    x, m, n = out.value, op["m"], op["n"]
    if len(x) != n or np.any(x[: m - 1] != 0) or x[m - 1] != 1 or np.any(x.imag != 0):
        chk.wrong("eigenvector support or normalisation wrong")
        return
    rng = np.random.default_rng(index)
    with mpmath.workdps(50):
        for k in {n, int(rng.integers(m, n + 1)), int(rng.integers(m, n + 1))}:
            chk.close(x[k - 1].real, mpmath.mpf(m) / k * mpmath.binomial(k, m), f"x_{k}")


def check_adjoint(op: dict, out, chk: Check, index: int) -> None:
    """x_n = prod_{j<n} (1 - c/j) = Gamma(n - c) / (Gamma(1 - c) Gamma(n)), c = chi/lambda."""
    if out.error is not None:
        chk.fail(f"raised {out.error}")
        return
    x, n = out.value, op["n"]
    lam = complex(*op["lam"])
    truth = PointTruth(lam, op["chi"], 0.0)
    if len(x) != n or x[0] != 1:
        chk.wrong("adjoint eigenvector shape or x_1 wrong")
        return
    rng = np.random.default_rng(index)
    ks = sorted({n, int(rng.integers(2, n + 1)), int(rng.integers(2, n + 1))})
    if truth.members == {True}:
        ell = truth.k
        if np.any(x[ell:] != 0) or np.any(x[:ell] == 0):
            chk.wrong(f"adjoint eigenvector of a_{ell} does not truncate after {ell}")
        for k in range(2, ell + 1):
            want = math.prod(Fraction(j - ell, j) for j in range(1, k))
            chk.close(x[k - 1], float(want), f"x_{k}")
        return
    with mpmath.workdps(50):
        c = _mpf(op["chi"]) / mpmath.mpc(lam.real, lam.imag)
        for k in ks:
            want = mpmath.exp(mpmath.loggamma(k - c) - mpmath.loggamma(1 - c) - mpmath.loggamma(k))
            chk.close(x[k - 1], want, f"x_{k}", rtol=1e-8)


def check(op: dict, out, index: int) -> Check:
    """Check one op's outcome; ``index`` seeds the choice of sampled entries."""
    chk = Check()
    kind = op["kind"]
    if kind in ("classify", "classify_custom"):
        check_classify(op, out, chk)
    elif kind == "spectrum_map":
        check_spectrum_map(op, out, chk, index)
    elif kind == "point_test":
        check_point_test(op, out, chk)
    elif kind == "spectrum_grid":
        check_spectrum_grid(op, out, chk, index)
    elif kind == "resolvent_verify":
        check_resolvent_verify(op, out, chk, index)
    elif kind == "product_band":
        check_product_band(op, out, chk)
    elif kind == "ideal_qnorm":
        check_ideal_qnorm(op, out, chk)
    elif kind == "ideal_axioms":
        check_ideal_axioms(op, out, chk)
    elif kind == "pseudospectrum":
        check_pseudospectrum(op, out, chk, index)
    elif kind == "eigenvector":
        check_eigenvector(op, out, chk, index)
    elif kind == "adjoint_eigvector":
        check_adjoint(op, out, chk, index)
    else:
        raise ValueError(kind)
    return chk
