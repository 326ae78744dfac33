"""Batch experiment driver.

Subcommands expose each module: group-check (group law and margin
properties), lemma-check (skew inverse-norm sweep), geometry (rank and
curvature certification), counterexample (delta ladders, slope fits, and
the divergence diagnostic), region (exact rational regions as CSV/SVG).

Configuration is a flat key=value text file; --set key=value overrides
individual entries, and a key the command does not read is an error.
Exit codes: 0 success, 1 assertion failure, 2 usage or configuration error.
"""

import argparse
import math
import sys
from fractions import Fraction

import numpy as np

from . import families, groups, phase, regions
from .groups import DomainError


class ConfigError(ValueError):
    pass


def load_config(path):
    """Flat key=value file; blank lines and # comments ignored."""
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"malformed config line: {line!r}")
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def apply_overrides(cfg, pairs):
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def parse_rational(text):
    """'inf', 'a/b', integer, or decimal string to a number."""
    text = str(text).strip()
    if text in ("inf", "infinity", "oo"):
        return float("inf")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse rational {text!r}") from exc


def parse_deltas(text):
    """Comma list; entries are decimals or '2^-k' powers."""
    out = []
    for item in str(text).split(","):
        item = item.strip()
        if not item:
            continue
        try:
            if "^" in item:
                base, _, expo = item.partition("^")
                out.append(float(base) ** float(expo))
            else:
                out.append(float(item))
        except ValueError as exc:
            raise ConfigError(f"cannot parse delta {item!r}") from exc
        except OverflowError as exc:
            raise ConfigError(f"delta {item!r} is too large for a "
                              "float") from exc
    if not out:
        raise ConfigError("empty delta ladder")
    return out


def build_structure(cfg):
    kind = cfg.get("kind", "heisenberg")
    n = int(cfg.get("n", 2))
    if kind == "heisenberg":
        s = groups.standard_heisenberg(n)
    elif kind == "normalized":
        s = groups.normalized_heisenberg(n)
    elif kind == "quaternionic":
        blocks = int(cfg.get("blocks", 1))
        m = int(cfg.get("m", 3))
        s = groups.quaternionic_htype(blocks, m)
    else:
        raise ConfigError(f"unknown structure kind {kind!r}")
    tilt = cfg.get("tilt")
    if tilt:
        row = np.array([float(v) for v in str(tilt).split(",")])
        if row.shape != (2 * s.n,) or s.m != 1:
            raise ConfigError("tilt expects 2n comma-separated values "
                              "on a one-dimensional center")
        s = groups.MetivierStructure(n=s.n, m=1, J=s.J, Lambda=row[None, :])
    return s


def _count(cfg, key, default, least=0):
    """Integer config entry of at least `least`."""
    value = int(cfg.get(key, default))
    if value < least:
        raise ConfigError(f"{key}={value}: must be at least {least}")
    return value


def _tolerance(cfg, default):
    """Tolerance entry: finite and at least 0."""
    value = float(cfg.get("tolerance", default))
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"tolerance={value!r}: must be finite and >= 0")
    return value


def _exponent(cfg, key):
    """Lebesgue exponent entry: a rational of at least 1, or inf."""
    text = cfg.get(key, "2")
    value = parse_rational(text)
    if not value >= 1:
        raise ConfigError(f"{key}={text}: exponent must be >= 1 or inf")
    # the ladder computes with float(p); a larger finite value overflows
    if value != math.inf and value > sys.float_info.max:
        raise ConfigError(f"{key}={text}: exponent is too large for a "
                          "float; use inf")
    return value


def _cell(value):
    """A table cell: floats by repr, None empty, anything else by str."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _table(columns, rows, head=(), tail=()):
    """CSV text: the schema line, '# ' head comments, the column row, one
    line per row, then '# ' tail comments."""
    lines = ["# schema=1"] + [f"# {c}" for c in head] + [",".join(columns)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    lines += [f"# {c}" for c in tail]
    return "\n".join(lines) + "\n"


def _emit(data, out_path):
    if isinstance(data, str):
        data = data.encode()
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())


# --- subcommands ---------------------------------------------------------

def cmd_group_check(cfg, seed, out_path, fmt):
    s = build_structure(cfg)
    samples = _count(cfg, "samples", 1000, least=1)
    tol = _tolerance(cfg, 1e-12)
    rng = np.random.default_rng(seed)
    # one row per sample in the order of Generator.uniform draws: x, y, z
    # uniform on [-2, 2)^d, then t uniform on [0.5, 2)
    d = s.d
    u = rng.random((samples, 3 * d + 1))
    x, y, z = (-2.0 + 4.0 * u[:, i * d:(i + 1) * d] for i in range(3))
    t = 0.5 + 1.5 * u[:, 3 * d:]
    mul = lambda a, b: groups.group_multiply(s, a, b)
    xy = mul(x, y)
    residuals = {
        "associativity": mul(xy, z) - mul(x, mul(y, z)),
        "identity": mul(x, np.zeros(d)) - x,
        "inverse": mul(x, groups.group_inverse(s, x)),
        "dilation": (groups.dilate(s, t, xy)
                     - mul(groups.dilate(s, t, x), groups.dilate(s, t, y))),
    }

    rows = []
    for name, residual in residuals.items():
        err = np.max(np.abs(residual))
        rows.append((name, err, tol, "pass" if err <= tol else "FAIL"))
    failed = any(row[-1] == "FAIL" for row in rows)
    margin = groups.smallness_margin(s)
    rows.append(("margin", margin, None,
                 "ok" if margin > 0 else "warning-nonpositive"))
    if s.m == 3 and not failed:
        th = rng.standard_normal((100, 3))
        Jt = s.J_theta(th)
        # |theta|^2 as a (100, 1, 1) stack of dot products, rounded as th @ th
        dev = Jt @ Jt + (th[:, None, :] @ th[:, :, None]) * np.eye(2 * s.n)
        worst_h = np.max(np.abs(dev))
        failed = not worst_h <= tol
        rows.append(("htype", worst_h, tol, "FAIL" if failed else "pass"))
    _emit(_table(["check", "worst_error", "tolerance", "status"], rows),
          out_path)
    return 1 if failed else 0


def cmd_lemma_check(cfg, seed, out_path, fmt):
    count = _count(cfg, "samples", 200, least=1)
    tol = _tolerance(cfg, 1e-10)
    rng = np.random.default_rng(seed)
    rows = []
    failed = False
    for _ in range(count):
        size = int(rng.integers(2, 9))
        raw = rng.standard_normal((size, size))
        B = raw - raw.T
        rho = float(rng.uniform(-2.0, 2.0))
        if rho == 0.0:
            rho = 1.0
        got = float(groups.skew_inverse_norm(rho, B))
        brute = float(np.linalg.norm(
            np.linalg.inv(rho * np.eye(size) + B), 2))
        rel = float(abs(got - brute) / brute)
        ok = rel <= tol
        if size % 2 == 1:
            ok = ok and abs(got - 1.0 / abs(rho)) <= tol / abs(rho)
        failed = failed or not ok
        rows.append((size, rho, got, brute, rel, "pass" if ok else "FAIL"))
    _emit(_table(["size", "rho", "formula", "bruteforce", "rel_error",
                  "status"], rows), out_path)
    return 1 if failed else 0


def cmd_geometry(cfg, seed, out_path, fmt):
    s = build_structure(cfg)
    points = _count(cfg, "points", 100)
    fold_points = _count(cfg, "fold_points", 50)
    if points + fold_points == 0:
        raise ConfigError("points=0 and fold_points=0: nothing to certify")
    margin = groups.smallness_margin(s)
    certified = margin > 0
    rng = np.random.default_rng(seed)
    reports = []
    deviations = 0
    for _ in range(points):
        x, t, y = phase.sample_chart_point(s, rng)
        rep = phase.certify_point(s, x, t, y, with_curvature=False)
        reports.append(rep)
        if rep.rank_xi != s.d:
            deviations += 1
    for _ in range(fold_points):
        x, t, y = phase.sample_chart_point(s, rng, on_fold=True,
                                           match_xprime=True)
        rep = phase.certify_point(s, x, t, y)
        reports.append(rep)
        if (rep.rank_xi != s.d or rep.rank_spatial != s.d - 1
                or rep.rank_curv != s.d - 1):
            deviations += 1
    columns = ([f"x{i}" for i in range(s.d)] + ["t"]
               + [f"y{i}" for i in range(s.d)]
               + ["sigma", "rank_xi", "rank_spatial", "rank_curv",
                  "c_value", "c_bound"])
    # rank_curv is -1 at the generic points, which skip the curvature
    rows = ((*r.x, r.t, *r.y, r.sigma, r.rank_xi, r.rank_spatial,
             -1 if r.rank_curv is None else r.rank_curv, r.c_value, r.c_bound)
            for r in reports)
    status = "certified" if certified else "uncertified"
    _emit(_table(columns, rows, head=[f"smallness_margin={margin!r}"],
                 tail=[f"status={status} deviations={deviations}"]),
          out_path)
    if deviations and certified:
        return 1
    return 0


def cmd_counterexample(cfg, seed, out_path, fmt):
    family = cfg.get("family", "ball")
    # the stein growth exponent's default tolerance is looser than a slope's
    tol = _tolerance(cfg, 0.2 if family == "stein" else 0.15)
    if family == "stein":
        alpha = float(cfg.get("alpha", 0.9))
        j_lo = int(cfg.get("j_lo", 10))
        j_hi = int(cfg.get("j_hi", 30))
        curve = families.stein_probe_curve(alpha, j_hi, j_lo=j_lo)
        expo = families.stein_growth_exponent(curve)
        mono = bool(np.all(np.diff(curve[:, 1]) > 0))
        verdict = mono and abs(expo - (1.0 - alpha)) <= tol
        rows = [(int(j), v) for j, v in curve]
        _emit(_table(["j", "value"], rows, head=[f"alpha={alpha!r}"],
                     tail=[f"growth_exponent={expo!r} "
                           f"expected={1.0 - alpha!r}",
                           f"verdict={'pass' if verdict else 'FAIL'}"]),
              out_path)
        return 0 if verdict else 1

    s = build_structure(cfg)
    p = _exponent(cfg, "p")
    q = _exponent(cfg, "q")
    deltas = parse_deltas(cfg.get("deltas", "2^-3,2^-4,2^-5,2^-6,2^-7"))
    # the fit's condition on the ladder, checked before the first rung
    families.check_ladder(deltas)
    if family == "ball":
        make = lambda d: families.ball_example(s, d)
    elif family == "scaling":
        t_fixed = float(cfg.get("t", 1.5))
        make = lambda d: families.scaling_example(s, d, t_fixed)
    elif family == "knapp":
        make = lambda d: families.knapp_example(s, d)
    elif family == "moment":
        make = lambda d: families.moment_example(d)
        s = families.moment_structure()
    else:
        raise ConfigError(f"unknown family {family!r}")
    predicted = families.predicted_exponent(family, s.n, s.m, p, q)
    rows = families.run_ladder(make, deltas, p, q)
    fit = families.fit_exponent(rows)
    verdict = families.fit_passes(fit, predicted, tol)
    _emit(_table(["family", "n", "m", "p", "q", "delta", "ratio",
                  "predicted_exponent"],
                 [(family, s.n, s.m, p, q, delta, ratio, predicted)
                  for delta, ratio in rows],
                 tail=[f"slope={fit.slope!r} intercept={fit.intercept!r} "
                       f"r_squared={fit.r_squared!r}",
                       f"predicted={predicted} tolerance={tol!r} "
                       f"max_residual={fit.max_residual!r} "
                       f"residual_bound={families.MAX_LOG_RESIDUAL!r}",
                       f"verdict={'pass' if verdict else 'FAIL'}"]),
          out_path)
    return 0 if verdict else 1


def cmd_region(cfg, seed, out_path, fmt):
    which = cfg.get("region", "maximal")
    n = int(cfg.get("n", 2))
    m = int(cfg.get("m", 1))
    if which == "maximal":
        reg = regions.maximal_region(n, m)
    elif which == "averaging":
        reg = regions.averaging_region(n, m)
    else:
        raise ConfigError(f"unknown region {which!r}")
    _emit(regions.export_region(reg, fmt or "csv"), out_path)
    return 0


# Each command with the config keys it reads; the structure keys, read by
# build_structure, are shared.  Any other key is an error.
STRUCTURE_KEYS = ("kind", "n", "blocks", "m", "tilt")
COMMANDS = {
    "group-check": (cmd_group_check,
                    STRUCTURE_KEYS + ("samples", "tolerance")),
    "lemma-check": (cmd_lemma_check, ("samples", "tolerance")),
    "geometry": (cmd_geometry, STRUCTURE_KEYS + ("points", "fold_points")),
    "counterexample": (cmd_counterexample, STRUCTURE_KEYS + (
        "family", "p", "q", "deltas", "tolerance", "t", "alpha", "j_lo",
        "j_hi")),
    "region": (cmd_region, ("region", "n", "m")),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="heislab",
        description="Experiments with spherical averages on two-step groups")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="key=value file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output path")
    parser.add_argument("--format", choices=["csv", "svg"], default=None)
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="overrides")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        cfg = apply_overrides(cfg, args.overrides)
        command, keys = COMMANDS[args.command]
        unknown = sorted(set(cfg) - set(keys))
        if unknown:
            raise ConfigError(
                f"unknown key{'s' * (len(unknown) > 1)} "
                f"{', '.join(map(repr, unknown))} for {args.command}; "
                f"its keys are {', '.join(keys)}")
        return command(cfg, args.seed, args.out, args.format)
    except (ConfigError, DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
