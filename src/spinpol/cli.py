"""Command line front end: verification sweeps, spectrum generation, field and spin tables.

Exit codes: 0 success, 1 verification failure, 2 configuration error (one
too large to allocate included), 3 degenerate geometry (axis parallel to the
characterization vector, spectrum reaching the zero wave vector, annihilated
reference spinors).
"""

import argparse
import functools
import json
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import verify as verify_mod
from . import wavepacket as wp
from .frames import (
    DEFAULT_REFERENCES,
    FALLBACK_REFERENCES,
    DegenerateFrame,
    ReferenceAnnihilated,
)
from .wavepacket import SpectrumNearOrigin

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3

# renormalizing a user vector by more than this triggers a warning
RENORM_WARN = 1e-6
# flags whose --config value may be a JSON list of numbers instead of text
VECTOR_FLAGS = ("k0", "i_vec", "alpha", "axis")
REFERENCES = {"default": DEFAULT_REFERENCES, "fallback": FALLBACK_REFERENCES}


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _parse_reals(value, count, name):
    """`count` finite floats from comma-separated text or a config file's list (see _typed)."""
    toks = value.split(",") if isinstance(value, str) else value
    # float(True) is 1.0: a JSON boolean is not a number here
    if any(isinstance(t, bool) for t in toks):
        raise ConfigError(f"{name} must hold numbers, got {list(toks)!r}")
    if len(toks) != count:
        raise ConfigError(f"{name} must have {count} components, got {len(toks)}")
    try:
        reals = np.array([float(t) for t in toks])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    if not np.all(np.isfinite(reals)):
        raise ConfigError(f"{name} must be finite, got {reals.tolist()}")
    return reals


def _renormalized(vec, name):
    """vec / |vec|, with a warning on stderr when |vec| is off 1 by more than RENORM_WARN.

    vec is first scaled by a power of two, which is exact, so that its squared
    norm neither overflows nor underflows: any finite nonzero vec is taken.
    """
    parts = vec.view(np.float64)  # a complex vec's real and imaginary parts
    _, exp = np.frexp(np.max(np.abs(parts)))
    scaled = np.ldexp(parts, -exp).view(vec.dtype)
    norm = np.linalg.norm(scaled)
    if norm == 0.0:
        raise ConfigError(f"{name} must be nonzero")
    with np.errstate(over="ignore"):  # |vec| may be past the float range: inf
        unscaled = np.ldexp(norm, exp)
    if abs(unscaled - 1.0) > RENORM_WARN:
        print(f"warning: renormalizing {name} (|{name}| = {_fmt(unscaled)})", file=sys.stderr)
    return scaled / norm


def _unit3(value, name):
    return _renormalized(_parse_reals(value, 3, name), name)


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a flat key-value object")
    return cfg


def _spectrum(args):
    if args.spectrum is not None:
        return wp.load_spectrum(args.spectrum)
    k0 = _parse_reals(args.k0, 3, "k0")
    return wp.gaussian_spectrum(k0, args.sigma_k, args.n_k, args.span)


def _packet_config(args):
    i_vec = _unit3(args.i_vec, "i_vec")
    re1, im1, re2, im2 = _parse_reals(args.alpha, 4, "alpha")
    alpha = _renormalized(np.array([re1 + 1j * im1, re2 + 1j * im2]), "alpha")
    return wp.PacketConfig(i_vec=i_vec, alpha=alpha, ref=REFERENCES[args.ref])


def _cmd_verify(args):
    if args.suites is None:
        names = list(verify_mod.SUITE_NAMES)
    else:
        names = [s.strip() for s in args.suites.split(",") if s.strip()]
        unknown = [s for s in names if s not in verify_mod.SUITE_NAMES]
        if unknown:
            raise ConfigError(
                f"unknown suites {unknown}; choose from {list(verify_mod.SUITE_NAMES)}"
            )
        if not names:
            raise ConfigError(f"suites {args.suites!r} names no suite")
    results = verify_mod.run_suites(
        names, seed=args.seed, n_cases=args.n_cases, tolerance=args.tolerance
    )
    text = "\n".join(verify_mod.report_lines(results)) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with wp._overwrite(args.out) as fh:
            fh.write(text.encode())
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def _cmd_spectrum_gen(args):
    spec = _spectrum(args)
    wp.save_spectrum(spec, args.out)
    total = np.sum(spec.weight * np.abs(spec.amplitude) ** 2)
    print(f"wrote {args.out}: {len(spec)} samples, sum weight |A|^2 = {_fmt(total)}")
    return EXIT_OK


def _cmd_field(args):
    spec = _spectrum(args)
    cfg = _packet_config(args)
    points, spacing = wp.position_grid(args.grid_n, args.grid_span)
    # the probability on the grid sums rho over cells of volume spacing^3
    try:
        cell = spacing**3
    except OverflowError:
        raise ConfigError(f"grid spacing {spacing} is too large: its cell volume overflows") from None
    if not cell > 0.0:
        raise ConfigError(f"grid spacing {spacing} is too small: its cell volume underflows")
    fld = wp.spin_field(spec, cfg, points, args.time)
    wp.save_spin_field(fld, args.out)
    prob = float(np.sum(fld.rho)) * cell
    ok = ~fld.node
    mean_s = (fld.rho[ok, None] * fld.s[ok]).sum(axis=0) / fld.rho[ok].sum()
    print(f"wrote {args.out}: {len(fld.rho)} rows ({int(fld.node.sum())} node points)")
    print(f"total probability on grid: {_fmt(prob)}")
    print(f"mean s: {_fmt(mean_s[0])},{_fmt(mean_s[1])},{_fmt(mean_s[2])}")
    return EXIT_OK


def _cmd_total_spin(args):
    spec = _spectrum(args)
    cfg = _packet_config(args)
    axis = _unit3(args.axis, "axis")
    phis, spins = wp.total_spin_i_sweep(spec, cfg, axis, args.steps)
    norms = np.linalg.norm(spins, axis=1)
    broken = np.flatnonzero(~(norms <= 0.5 * cfg.hbar + 1e-9))  # a NaN row too
    if broken.size:
        i = broken[0]
        raise ConfigError(f"row {i}: |S| = {norms[i]} exceeds hbar/2; spectrum normalization is broken")
    wp.write_table(args.out, "phi,Sx,Sy,Sz", np.column_stack([phis, spins]))
    print(f"wrote {args.out}: {args.steps} rows, max |S| = {_fmt(norms.max())}")
    return EXIT_OK


def _add_spectrum_flags(sub):
    sub.add_argument("--spectrum", help="spectrum CSV path (overrides generation flags)")
    sub.add_argument("--k0", default="0,0,5", help="spectrum center kx,ky,kz (default 0,0,5)")
    sub.add_argument("--sigma-k", dest="sigma_k", type=float, default=0.5,
                     help="spectral width (default 0.5)")
    sub.add_argument("--n-k", dest="n_k", type=int, default=9,
                     help="odd samples per k axis (default 9)")
    sub.add_argument("--span", type=float, default=4.0,
                     help="k grid half-width in sigma_k units (default 4)")


def _add_packet_flags(sub):
    sub.add_argument("--i-vec", dest="i_vec", default="1,0,0",
                     help="characterization vector x,y,z (default 1,0,0)")
    sub.add_argument("--alpha", default="1,0,0,0", help="Jones vector re1,im1,re2,im2 (default 1,0,0,0)")
    sub.add_argument("--ref", choices=REFERENCES, default="default",
                     help="reference spinor pair (default: default)")


def _add_verify_flags(sub):
    sub.add_argument("--suites", help="comma-separated subset of " + ",".join(verify_mod.SUITE_NAMES))
    sub.add_argument("--n-cases", dest="n_cases", type=int, default=verify_mod.DEFAULT_CASES,
                     help="cases per suite (default 100)")
    sub.add_argument("--tolerance", type=float, help="override every suite tolerance")


def _add_grid_flags(sub):
    sub.add_argument("--grid-n", dest="grid_n", type=int, default=21,
                     help="points per position axis (default 21)")
    sub.add_argument("--grid-span", dest="grid_span", type=float, default=6.0,
                     help="position grid half-width (default 6)")
    sub.add_argument("--time", type=float, default=0.0, help="evaluation time (default 0)")


def _add_sweep_flags(sub):
    sub.add_argument("--axis", default="0,0,1", help="sweep axis x,y,z (default 0,0,1)")
    sub.add_argument("--steps", type=int, default=8, help="sweep points on [0, 2pi) (default 8)")


class _Subcommand(NamedTuple):
    run: Callable
    help: str
    flags: tuple  # functions adding the subcommand's own flags, in order
    out: str | None  # default --out


_SUBCOMMANDS = {
    "verify": _Subcommand(_cmd_verify, "run randomized property suites", (_add_verify_flags,), None),
    "spectrum-gen": _Subcommand(
        _cmd_spectrum_gen, "generate a Gaussian spectrum CSV", (_add_spectrum_flags,), "spectrum.csv"
    ),
    "field": _Subcommand(
        _cmd_field, "evaluate the local polarization field on a grid",
        (_add_spectrum_flags, _add_packet_flags, _add_grid_flags), "spin_field.csv",
    ),
    "total-spin": _Subcommand(
        _cmd_total_spin, "sweep the characterization vector and tabulate total spin",
        (_add_spectrum_flags, _add_packet_flags, _add_sweep_flags), "total_spin.csv",
    ),
}


# argparse's default formatter asks the terminal for its width each time it is
# made, and adding a flag makes one.  Nothing is laid out while flags are added,
# so a parser is built with this one and then given argparse's own, which lays
# out its help and errors at the terminal's width
_BUILDING = functools.partial(argparse.HelpFormatter, width=80)


def build_parser(config=None):
    """Argument parser; values in `config` (keyed by flag dest) replace the built-in defaults."""
    parser = argparse.ArgumentParser(
        prog="spinpol",
        description="Spin polarization of a free spin-1/2 particle, characterized by a unit vector.",
        formatter_class=_BUILDING,
    )
    subs = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, formatter_class=_BUILDING),
    )
    for name, spec in _SUBCOMMANDS.items():
        _add_flags(subs.add_parser(name, help=spec.help), name, config)
    parser.formatter_class = argparse.HelpFormatter
    return parser


def _add_flags(sub, name, config=None):
    """The flags of subcommand `name` on parser `sub`, their defaults replaced by `config`."""
    spec = _SUBCOMMANDS[name]
    for add_flags in spec.flags:
        add_flags(sub)
    sub.add_argument("--config", help="flat JSON config; flags override file values")
    sub.add_argument("--seed", type=int, default=verify_mod.DEFAULT_SEED,
                     help="random seed (default 1729)")
    sub.add_argument("--out", default=spec.out, help="output path")
    if config:
        sub.set_defaults(**_typed(sub, config))
    sub.formatter_class = argparse.HelpFormatter


def _typed(sub, config):
    """config with each value for a flag of sub checked as its command-line text would be.

    A value for a flag with a type is converted from its text.  Every other
    flag takes a string; the vector flags also take a JSON list of numbers.
    A flag with choices takes one of them.
    """
    typed = dict(config)
    for action in sub._actions:
        if action.dest not in config:
            continue
        value = config[action.dest]
        if action.type is not None:
            try:
                typed[action.dest] = action.type(str(value))
            except ValueError as exc:
                raise ConfigError(f"config value {action.dest} = {value!r}: {exc}") from exc
        elif action.dest in VECTOR_FLAGS:
            if not isinstance(value, (str, list)):
                raise ConfigError(
                    f"config value {action.dest} = {value!r}: must be a string or a list"
                )
        elif not isinstance(value, str):
            raise ConfigError(f"config value {action.dest} = {value!r}: must be a string")
        if action.choices is not None and typed[action.dest] not in action.choices:
            raise ConfigError(
                f"config value {action.dest} = {value!r}: must be one of {list(action.choices)}"
            )
    return typed


def _parse(argv):
    """The namespace of argv, with the help, usage and error texts and exit codes of build_parser().

    An argv led by a subcommand builds one parser of that subcommand's flags
    (_add_flags, which build_parser calls too), which prints the help and
    usage errors of the same subcommand in the full parser; with --config it
    parses again with the file's values as defaults.  A stray argument, and
    any other argv (-h, an unknown command, none), goes to the full parser.
    """
    argv = sys.argv[1:] if argv is None else argv
    if not (argv and argv[0] in _SUBCOMMANDS):
        return build_parser().parse_args(argv)
    parser = argparse.ArgumentParser(prog=f"spinpol {argv[0]}", formatter_class=_BUILDING)
    parser.set_defaults(command=argv[0])
    _add_flags(parser, argv[0])
    args, extras = parser.parse_known_args(argv[1:])
    if extras:
        build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    if args.config is None:
        return args
    config = _load_config(args.config)
    # the keys a config may set are the dests of the subcommand's own flags
    unknown = sorted(set(config) - (set(vars(args)) - {"command", "config"}))
    if unknown:
        raise ConfigError(f"unknown keys in config {args.config}: {unknown}")
    parser.set_defaults(**_typed(parser, config))
    return parser.parse_args(argv[1:])


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return _SUBCOMMANDS[args.command].run(args)
    except (DegenerateFrame, SpectrumNearOrigin, ReferenceAnnihilated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # numpy's message names the size of the array that did not fit
        print(f"error: the configuration is too large to run: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
