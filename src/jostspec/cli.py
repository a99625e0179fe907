"""Batch front end: config ingestion, experiment orchestration, CSV emission.

Experiments map 1:1 to subcommands (bands, density, entropy, certify,
compare).  Configs are INI-style text with [block], [perturbation] and
[experiment] sections; see the README for the exact grammar.  Outputs are
deterministic for a fixed config: floats are written with 17
significant digits and metadata headers carry no timestamps.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bands import band_edges, band_interior, interval_constants, widest_trimmed_band
from .certify import (
    _doubling_grid,
    check_diagonal_products,
    check_floquet_bound,
    check_harmonic_hypotheses,
    check_w_summability,
)
from .coefficients import PerturbationSpec, make_model, periodic_block
from .errors import JostspecError, ValidationError
from .measures import density_curve, entropy_integrals

EXPERIMENTS = ("bands", "density", "entropy", "certify", "compare")


@dataclass
class RunConfig:
    """Validated run parameters for one experiment."""

    experiment: str
    block: object
    pert: PerturbationSpec
    params: dict


def _fmt(x):
    return format(float(x), ".17g")


def _fmt_rows(*columns):
    """CSV lines of _fmt values, one column per 1-D array.  At about 0.5 us
    a value, %.17g is the floor for byte-stable CSVs."""
    line = ",".join(["%.17g"] * len(columns))
    return [line % row for row in zip(*(np.asarray(c, dtype=float).tolist() for c in columns))]


def _float_list(text):
    return [float(p) for p in text.replace(",", " ").split()]


def _int_list(text):
    return tuple(int(p) for p in text.replace(",", " ").split())


def _at_least(name, low, parse=int):
    """Parser of an int, or with parse=_int_list of a nonempty list of ints,
    whose every value is >= low."""

    def check(text):
        value = parse(text)
        if np.size(value) == 0:
            raise ValidationError(f"no {name} given")
        if not (np.asarray(value) >= low).all():
            raise ValidationError(f"{name} must be >= {low}")
        return value

    return check


def _finite(name, parse=float):
    """Parser of a float, or with parse=_float_list of a list of floats, whose
    every value is finite."""

    def check(text):
        value = parse(text)
        if not np.isfinite(value).all():
            raise ValidationError(f"{name} must be finite")
        return value

    return check


def _n_grid(text):
    """Parser of certify's n_grid: positive ints, at least 2 of them
    distinct, each twice the one before it once sorted."""
    value = _int_list(text)
    _doubling_grid(value)
    return value


def _positive_finite(name):
    def parse(text):
        x = float(text)
        if not x > 0.0:
            raise ValidationError(f"{name} must be positive")
        if x == np.inf:
            raise ValidationError(f"{name} must be finite")
        return x

    return parse


def _one_of(name, choices):
    def parse(text):
        value = text.strip()
        if value not in choices:
            raise ValidationError(f"{name} must be one of {', '.join(choices)}; got {value!r}")
        return value

    return parse


def _parse_interval(text):
    text = text.strip()
    if text == "auto":
        return text
    bounds = tuple(_float_list(text))
    if len(bounds) != 2 or not -np.inf < bounds[0] < bounds[1] < np.inf:
        raise ValidationError("interval must be 'auto' or two finite numbers lo < hi")
    return bounds


# Every config section as {key: (default, parser)}: a given key's text goes
# through the parser, whatever the perturbation kind or experiment reads;
# an absent key takes the default.
_SECTIONS = {
    "block": {"q": (1, int), "a": ((1.0,), _float_list), "b": ((0.0,), _float_list)},
    "perturbation": {
        "kind": ("zero", _one_of("kind", ("zero", "finite_list", "power_decay_oscillatory"))),
        "alpha": ((), _finite("alpha", _float_list)),
        "beta": ((), _finite("beta", _float_list)),
        "c": (1.0, _finite("c")),
        "s": (0.5, _finite("s")),
        "gamma": (None, _finite("gamma")),
        "target": ("b", _one_of("target", ("a", "b", "both"))),
    },
    "experiment": {
        "N": (20, _at_least("N", 1)),
        "N_list": ((10, 20, 40, 80), _at_least("N_list entries", 1, _int_list)),
        "interval": ("auto", _parse_interval),
        "grid_points": (200, _at_least("grid_points", 2)),
        "method": ("key_formula", _one_of("method", ("key_formula", "oracle"))),
        "quad_order": (64, _at_least("quad_order", 4)),
        "margin": (0.1, _positive_finite("margin")),
        "tol": (1e-5, _positive_finite("tol")),
        "n_grid": ((16, 32, 64, 128), _n_grid),
    },
}


def _read_config(path, overrides):
    # No section header can name "\n", so a [DEFAULT] in the file is a section
    # like any other, rejected below, and not defaults for every section.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    parser.optionxform = str
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ValidationError(f"config file {path} is unreadable")
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ValidationError(f"override must look like section.key=value: {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        try:
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, value)
        except (configparser.Error, ValueError) as exc:
            raise ValidationError(f"bad override {item!r}: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"unknown config section [{section}]")
    return parser


def _section(parser, name):
    """Values of config section `name`, read once as a plain dict, by its
    table in _SECTIONS, an absent section giving every default.  Raises
    ValidationError on an unknown key or on a value its parser rejects."""
    table = _SECTIONS[name]
    given = dict(parser.items(name, raw=True)) if parser.has_section(name) else {}
    for key in given:
        if key not in table:
            raise ValidationError(f"unknown key {key!r} in [{name}]")
    try:
        return {key: parse(given[key]) if key in given else default for key, (default, parse) in table.items()}
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"bad [{name}] value: {exc}") from exc


def _parse_block(parser):
    if not parser.has_section("block"):
        raise ValidationError("config must contain a [block] section")
    sec = _section(parser, "block")
    return periodic_block(sec["q"], sec["a"], sec["b"])


def _parse_pert(parser):
    sec = _section(parser, "perturbation")
    if sec["kind"] == "zero":
        return PerturbationSpec.zero()
    if sec["kind"] == "finite_list":
        return PerturbationSpec.finite(alpha=sec["alpha"], beta=sec["beta"])
    if sec["gamma"] is None:
        raise ValidationError("bad [perturbation] value: power_decay_oscillatory needs gamma")
    return PerturbationSpec.power(sec["c"], sec["s"], sec["gamma"], sec["target"])


def load_config(config_path, overrides, experiment) -> RunConfig:
    parser = _read_config(config_path, overrides)
    block = _parse_block(parser)
    pert = _parse_pert(parser)
    params = _section(parser, "experiment")
    return RunConfig(
        experiment=experiment,
        block=block,
        pert=pert,
        params=params,
    )


def _resolve_interval(cfg):
    """(lo, hi): the widest trimmed band for auto, else the given interval if inside one band."""
    spec = cfg.params["interval"]
    if spec == "auto":
        return widest_trimmed_band(cfg.block, cfg.params["margin"])
    return band_interior(cfg.block, spec)


def _meta_lines(cfg, model, extra=None):
    lines = [
        f"# jostspec={__version__} experiment={cfg.experiment} model={model.fingerprint()}",
        f"# q={cfg.block.q} a={','.join(_fmt(x) for x in cfg.block.a_bg)} "
        f"b={','.join(_fmt(x) for x in cfg.block.b_bg)} pert={cfg.pert.kind}",
    ]
    if extra:
        lines.append("# " + extra)
    return lines


def _run_bands(cfg, model):
    lo, hi = zip(*band_edges(cfg.block).bands)
    return ["lo,hi", *_fmt_rows(lo, hi)], _meta_lines(cfg, model), 0


def _run_density(cfg, model):
    p = cfg.params
    interval = _resolve_interval(cfg)
    n = p["N"]
    curve = density_curve(model, n, interval, p["grid_points"], method=p["method"])
    extra = f"N={n} interval=[{_fmt(interval[0])},{_fmt(interval[1])}] method={p['method']}"
    return ["E,value", *_fmt_rows(curve.grid, curve.values)], _meta_lines(cfg, model, extra), 0


def _run_compare(cfg, model):
    p = cfg.params
    interval = _resolve_interval(cfg)
    n = p["N"]
    key = density_curve(model, n, interval, p["grid_points"], method="key_formula")
    oracle = density_curve(model, n, interval, p["grid_points"], method="oracle")
    rel = np.abs(key.values - oracle.values) / np.maximum(np.abs(key.values), 1e-300)
    worst = float(np.max(rel, initial=0.0))
    rows = ["E,density_key,density_oracle,rel_err", *_fmt_rows(key.grid, key.values, oracle.values, rel)]
    extra = f"N={n} interval=[{_fmt(interval[0])},{_fmt(interval[1])}] max_rel_err={_fmt(worst)} tol={_fmt(p['tol'])}"
    code = 0 if worst < p["tol"] else 3
    return rows, _meta_lines(cfg, model, extra), code


def _run_entropy(cfg, model):
    p = cfg.params
    interval = _resolve_interval(cfg)
    rows = ["N,I_lo,I_hi,value,quad_order"]
    orders = (p["quad_order"], 2 * p["quad_order"])
    bounds = f"{_fmt(interval[0])},{_fmt(interval[1])}"
    values = entropy_integrals(model, p["N_list"], interval, orders)
    for n, per_order in zip(p["N_list"], values):
        rows += [f"{n},{bounds},{_fmt(val)},{order}" for order, val in zip(orders, per_order)]
    extra = f"interval=[{bounds}]"
    return rows, _meta_lines(cfg, model, extra), 0


def _run_certify(cfg, model):
    p = cfg.params
    interval = interval_constants(cfg.block, _resolve_interval(cfg))
    zeta = complex(interval.midpoint(), 0.5 * interval.eps_I)
    reports = [
        check_floquet_bound(cfg.block, interval),
        check_w_summability(model, zeta, p["n_grid"]),
        check_diagonal_products(model, interval),
        check_harmonic_hypotheses(model, p["N"], interval),
    ]
    rows = ["name,passed,constant_name,constant_value,worst_E,worst_y"]
    for rep in reports:
        worst = ",".join(_fmt(rep.worst_case[k]) if k in rep.worst_case else "" for k in ("E", "y"))
        rows += [
            f"{rep.name},{str(rep.passed).lower()},{cname},{_fmt(cval)},{worst}"
            for cname, cval in rep.measured.items()
            if not isinstance(cval, (list, tuple))
        ]
    extra = f"N={p['N']} interval=[{_fmt(interval.lo)},{_fmt(interval.hi)}] eps_I={_fmt(interval.eps_I)}"
    return rows, _meta_lines(cfg, model, extra), 0 if all(rep.passed for rep in reports) else 3


_RUNNERS = {
    "bands": _run_bands,
    "density": _run_density,
    "entropy": _run_entropy,
    "certify": _run_certify,
    "compare": _run_compare,
}


def run(config_path, overrides=None, experiment=None, out_dir="."):
    """Execute one experiment; returns the process exit code.

    Output CSVs are assembled fully in memory and written only on success,
    so validation failures (exit 2) leave no files behind.
    """
    try:
        if experiment not in EXPERIMENTS:
            raise ValidationError(f"unknown experiment {experiment!r}")
        cfg = load_config(config_path, overrides, experiment)
        model = make_model(cfg.block, cfg.pert)
        rows, meta, code = _RUNNERS[experiment](cfg, model)
    except JostspecError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{experiment}.csv").write_text("\n".join([*meta, *rows, ""]), encoding="utf-8", newline="")
    return code


# Built once per process: parse_args leaves the parser as it is, and the
# append action copies the shared --set default before it appends.
_PARSER = argparse.ArgumentParser(
    prog="jostspec",
    description="Spectral experiments for perturbed periodic Jacobi operators.",
)
_PARSER.add_argument("experiment", choices=EXPERIMENTS)
_PARSER.add_argument("--config", required=True, help="path to an INI config file")
_PARSER.add_argument(
    "--set",
    dest="overrides",
    action="append",
    default=[],
    metavar="section.key=value",
    help="override a config entry (repeatable)",
)
_PARSER.add_argument("--out", default=".", help="output directory (default: .)")


def main(argv=None):
    args = _PARSER.parse_args(argv)
    return run(
        args.config,
        overrides=args.overrides,
        experiment=args.experiment,
        out_dir=args.out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
