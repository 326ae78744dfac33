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


class ConfigError(ValueError):
    pass


def _assign(cfg, items, malformed):
    """Enter each key=value item into cfg, or raise malformed.format(item)."""
    for item in items:
        key, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(malformed.format(item))
        cfg[key.strip()] = value.strip()
    return cfg


def load_config(path):
    """Flat key=value file; blank lines and # comments ignored."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in map(str.strip, fh)
                 if line and not line.startswith("#")]
    return _assign({}, lines, "malformed config line: {!r}")


def apply_overrides(cfg, pairs):
    return _assign(cfg, pairs, "--set expects key=value, got {!r}")


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


class Config(dict):
    """A command's config entries; get records each key the command reads."""

    def __init__(self, entries, command):
        super().__init__(entries)
        self.command, self.read = command, {}

    def get(self, key, default=None):
        self.read[key] = True
        return super().get(key, default)

    def reject_unread(self):
        """Raise for the entries not read; a command calls this once it has
        read all its keys, before it computes."""
        unknown = sorted(set(self) - set(self.read))
        if unknown:
            raise ConfigError(
                f"unknown key{'s' * (len(unknown) > 1)} "
                f"{', '.join(map(repr, unknown))} for {self.command}; "
                f"its keys are {', '.join(self.read)}")


def build_structure(cfg):
    kind = cfg.get("kind", "heisenberg")
    if kind == "heisenberg":
        s = groups.standard_heisenberg(_integer(cfg, "n", 2))
    elif kind == "normalized":
        s = groups.normalized_heisenberg(_integer(cfg, "n", 2))
    elif kind == "quaternionic":
        s = groups.quaternionic_htype(_integer(cfg, "blocks", 1),
                                      _integer(cfg, "m", 3))
    else:
        raise ConfigError(f"unknown structure kind {kind!r}")
    tilt = cfg.get("tilt")
    if tilt:
        try:
            row = np.array(str(tilt).split(","), dtype=float)
            s = groups.MetivierStructure(s.n, 1, s.J, row[None, :])
        except ValueError:
            raise ConfigError(f"tilt={tilt}: must be 2n finite numbers "
                              "on a one-dimensional center") from None
    return s


def _integer(cfg, key, default, least=None):
    """Integer config entry, of at least `least` when that is given."""
    text = cfg.get(key, default)
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{key}={text}: must be an integer") from None
    if least is not None and value < least:
        raise ConfigError(f"{key}={value}: must be at least {least}")
    return value


def _real(cfg, key, default):
    """Float config entry: a finite number of at least 0."""
    text = cfg.get(key, default)
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}={text}: must be a number") from None
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{key}={text}: must be finite and >= 0")
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
    """CSV bytes: the schema line, '# ' head comments, the column row, one
    line per row, then '# ' tail comments."""
    lines = ["# schema=1"] + [f"# {c}" for c in head] + [",".join(columns)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    lines += [f"# {c}" for c in tail]
    return ("\n".join(lines) + "\n").encode()


# --- subcommands: each maps (cfg, args) to (output bytes, exit code) -----

def cmd_group_check(cfg, args):
    s = build_structure(cfg)
    samples = _integer(cfg, "samples", 1000, least=1)
    tol = _real(cfg, "tolerance", 1e-12)
    cfg.reject_unread()
    rng = np.random.default_rng(args.seed)
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
    # the quaternionic and normalized structures are H-type
    if cfg.get("kind") in ("normalized", "quaternionic") and not failed:
        th = rng.standard_normal((100, s.m))
        Jt = s.J_theta(th)
        # |theta|^2 as a (100, 1, 1) stack of dot products, rounded as th @ th
        dev = Jt @ Jt + (th[:, None, :] @ th[:, :, None]) * np.eye(2 * s.n)
        worst_h = np.max(np.abs(dev))
        failed = not worst_h <= tol
        rows.append(("htype", worst_h, tol, "FAIL" if failed else "pass"))
    return (_table(["check", "worst_error", "tolerance", "status"], rows),
            1 if failed else 0)


def cmd_lemma_check(cfg, args):
    count = _integer(cfg, "samples", 200, least=1)
    tol = _real(cfg, "tolerance", 1e-10)
    cfg.reject_unread()
    rng = np.random.default_rng(args.seed)
    rows = []
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
        rows.append((size, rho, got, brute, rel, "pass" if ok else "FAIL"))
    return (_table(["size", "rho", "formula", "bruteforce", "rel_error",
                    "status"], rows),
            1 if any(row[-1] == "FAIL" for row in rows) else 0)


def cmd_geometry(cfg, args):
    s = build_structure(cfg)
    points = _integer(cfg, "points", 100, least=0)
    fold_points = _integer(cfg, "fold_points", 50, least=0)
    cfg.reject_unread()
    if points + fold_points == 0:
        raise ConfigError("points=0 and fold_points=0: nothing to certify")
    margin = groups.smallness_margin(s)
    certified = margin > 0
    rng = np.random.default_rng(args.seed)
    reports = []
    # the generic points, then the fold points
    for on_fold in [False] * points + [True] * fold_points:
        x, t, y = phase.sample_chart_point(s, rng, on_fold=on_fold)
        reports.append(phase.certify_point(s, x, t, y, on_fold=on_fold))
    deviations = sum(r.deviates for r in reports)
    columns = ([f"x{i}" for i in range(s.d)] + ["t"]
               + [f"y{i}" for i in range(s.d)]
               + ["sigma", "rank_xi", "rank_spatial", "rank_curv",
                  "c_value", "c_bound"])
    # rank_curv is -1 at the generic points, which skip the curvature
    rows = ((*r.x, r.t, *r.y, r.sigma, r.rank_xi, r.rank_spatial,
             -1 if r.rank_curv is None else r.rank_curv, r.c_value, r.c_bound)
            for r in reports)
    status = "certified" if certified else "uncertified"
    return (_table(columns, rows, head=[f"smallness_margin={margin!r}"],
                   tail=[f"status={status} deviations={deviations}"]),
            1 if deviations and certified else 0)


def cmd_counterexample(cfg, args):
    family = cfg.get("family", "ball")
    # the stein growth exponent's default tolerance is looser than a slope's
    tol = _real(cfg, "tolerance", 0.2 if family == "stein" else 0.15)
    if family == "stein":
        alpha = _real(cfg, "alpha", 0.9)
        j_lo = _integer(cfg, "j_lo", 10)
        j_hi = _integer(cfg, "j_hi", 30)
        cfg.reject_unread()
        curve = families.stein_probe_curve(alpha, j_hi, j_lo=j_lo)
        # the growth fit refuses a curve that does not increase
        expo = families.stein_growth_exponent(curve)
        verdict = abs(expo - (1.0 - alpha)) <= tol
        rows = [(int(j), v) for j, v in curve]
        return (_table(["j", "value"], rows, head=[f"alpha={alpha!r}"],
                       tail=[f"growth_exponent={expo!r} "
                             f"expected={1.0 - alpha!r}",
                             f"verdict={'pass' if verdict else 'FAIL'}"]),
                0 if verdict else 1)

    if family not in families.FAMILIES:
        raise ConfigError(f"unknown family {family!r}")
    # the moment family has its own group and reads no structure key
    s = (families.moment_structure() if family == "moment"
         else build_structure(cfg))
    if family == "ball":
        make = lambda d: families.ball_example(s, d)
    elif family == "scaling":
        t_fixed = _real(cfg, "t", 1.5)
        make = lambda d: families.scaling_example(s, d, t_fixed)
    elif family == "knapp":
        make = lambda d: families.knapp_example(s, d)
    else:
        make = lambda d: families.moment_example(d)
    p = _exponent(cfg, "p")
    q = _exponent(cfg, "q")
    deltas = parse_deltas(cfg.get("deltas", "2^-3,2^-4,2^-5,2^-6,2^-7"))
    cfg.reject_unread()
    # the fit's condition on the ladder, checked before the first rung
    families.check_ladder(deltas)
    predicted = families.predicted_exponent(family, s.n, s.m, p, q)
    rows = families.run_ladder(make, deltas, p, q)
    fit = families.fit_exponent(rows)
    verdict = families.fit_passes(fit, predicted, tol)
    return (_table(["family", "n", "m", "p", "q", "delta", "ratio",
                    "predicted_exponent"],
                   [(family, s.n, s.m, p, q, delta, ratio, predicted)
                    for delta, ratio in rows],
                   tail=[f"slope={fit.slope!r} intercept={fit.intercept!r} "
                         f"r_squared={fit.r_squared!r}",
                         f"predicted={predicted} tolerance={tol!r} "
                         f"max_residual={fit.max_residual!r} "
                         f"residual_bound={families.MAX_LOG_RESIDUAL!r}",
                         f"verdict={'pass' if verdict else 'FAIL'}"]),
            0 if verdict else 1)


def cmd_region(cfg, args):
    which = cfg.get("region", "maximal")
    n = _integer(cfg, "n", 2)
    m = _integer(cfg, "m", 1)
    cfg.reject_unread()
    build = {"maximal": regions.maximal_region,
             "averaging": regions.averaging_region}.get(which)
    if build is None:
        raise ConfigError(f"unknown region {which!r}")
    return regions.export_region(build(n, m), args.format), 0


COMMANDS = {
    "group-check": cmd_group_check,
    "lemma-check": cmd_lemma_check,
    "geometry": cmd_geometry,
    "counterexample": cmd_counterexample,
    "region": cmd_region,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="heislab",
        description="Experiments with spherical averages on two-step groups")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="key=value file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output path")
    parser.add_argument("--format", choices=["csv", "svg"], default="csv",
                        help="svg is for region only")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="overrides")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        cfg = Config(apply_overrides(cfg, args.overrides), args.command)
        if args.format != "csv" and args.command != "region":
            raise ConfigError(f"--format svg: {args.command} writes csv only")
        data, code = COMMANDS[args.command](cfg, args)
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.write(data.decode())
        return code
    # ConfigError and DomainError are ValueErrors; MemoryError is a
    # request larger than the memory available
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
