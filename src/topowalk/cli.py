"""Command-line experiment runner.

Subcommands: walk (single particle), pair (two particles), sweep (entropy
heatmap over two angle axes), phase-diagram. Flags override config-file values.
Exit codes: 0 success, 2 config validation error, 3 runtime numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, NumericalError, WindowOverflowError
from .experiments import RunConfig, config_from_dict, run, write_artifacts


def _parse_disorder_flag(text: str) -> dict:
    if text in ("none", "weak", "strong"):
        return {"kind": text}
    if text.startswith("width="):
        try:
            return {"kind": "uniform", "half_width": float(text.split("=", 1)[1])}
        except ValueError:
            raise ConfigError("disorder", f"bad width in {text!r}")
    raise ConfigError("disorder", f"expected none|weak|strong|width=<radians>, got {text!r}")


def _parse_boundary_flag(text: str) -> dict:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("boundary", "expected 4 comma-separated angles: t1-,t2-,t1+,t2+")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigError("boundary", f"non-numeric angle in {text!r}")
    return {"minus": vals[:2], "plus": vals[2:]}


def _parse_axis_flag(text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError("sweep_grid", "expected name:min:max:count")
    try:
        return {"name": parts[0], "min": float(parts[1]), "max": float(parts[2]), "count": int(parts[3])}
    except ValueError:
        raise ConfigError("sweep_grid", f"bad axis spec {text!r}")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON run config; flags override its fields")
    sub.add_argument("--seed", type=int, help="master seed (u64)")
    sub.add_argument("--steps", type=int, help="number of time steps")
    sub.add_argument("--window", type=int, help="lattice half-width (default: steps + 1)")
    sub.add_argument("--disorder", help="none|weak|strong|width=<radians>")
    sub.add_argument("--disorder-target", choices=("a", "b", "both"), dest="disorder_target")
    sub.add_argument("--state", choices=("psi+", "psi-", "sep"), help="initial pair state")
    for name in ("theta1a", "theta2a", "theta1b", "theta2b"):
        sub.add_argument(f"--{name}", type=float, help=f"{name} in radians")
    sub.add_argument("--boundary", help="t1-,t2-,t1+,t2+ boundary angles (both particles)")
    sub.add_argument("--ensemble", type=int, help="disorder realizations to average")
    sub.add_argument("--out", default="out", help="output directory (default: ./out)")
    sub.add_argument("--axis", action="append", dest="axes",
                     help="sweep axis name:min:max:count (give twice)")
    sub.add_argument("--sweep-scalar", choices=("final", "longmean"), dest="sweep_scalar")
    sub.add_argument("--k-points", type=int, dest="k_points")
    sub.add_argument("--grid-n", type=int, dest="grid_n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topowalk", description="Split-step quantum walk experiments"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    walk = subs.add_parser("walk", help="single-particle walk")
    walk.add_argument("--kind", choices=("hadamard", "split"), default=None,
                      help="coin scheme (default hadamard)")
    pair = subs.add_parser("pair", help="two-particle walk (tptpw, or tptbw with --boundary)")
    sweep = subs.add_parser("sweep", help="entropy heatmap over two angle axes")
    phase = subs.add_parser("phase-diagram", help="winding number over the angle plane")
    for sub in (walk, pair, sweep, phase):
        _add_common_flags(sub)
    return parser


def _file_mapping(data: dict, key: str, default: dict) -> dict:
    """A copy of the config file's mapping under key, for flags to update."""
    value = data.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(key, f"expected a mapping, got {value!r}")
    return dict(value)


def _config_data(args: argparse.Namespace) -> dict:
    data: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config", "config file must hold a JSON object")

    if args.command == "walk":
        if args.kind is not None:
            data["run_kind"] = "hadamard" if args.kind == "hadamard" else "single_split"
        data.setdefault("run_kind", "hadamard")
    elif args.command == "pair":
        if args.boundary is not None:
            data["run_kind"] = "tptbw"
        data.setdefault("run_kind", "tptpw")
    elif args.command == "sweep":
        data["run_kind"] = "entropy_sweep"
    else:
        data["run_kind"] = "phase_diagram"

    if args.seed is not None:
        data["master_seed"] = args.seed
    if args.steps is not None:
        data["steps"] = args.steps
    if args.window is not None:
        data["window"] = args.window
    if args.ensemble is not None:
        data["ensemble_size"] = args.ensemble
    if args.sweep_scalar is not None:
        data["sweep_scalar"] = args.sweep_scalar
    if args.k_points is not None:
        data["k_points"] = args.k_points
    if args.grid_n is not None:
        data["grid_n"] = args.grid_n
    if args.state is not None:
        state = dict(data.get("initial_state") or {}) if isinstance(data.get("initial_state"), dict) else {}
        state["kind"] = args.state
        data["initial_state"] = state

    if args.disorder is not None or args.disorder_target is not None:
        disorder = _file_mapping(data, "disorder", {})
        if args.disorder is not None:
            disorder.update(_parse_disorder_flag(args.disorder))
        if args.disorder_target is not None:
            disorder["target"] = args.disorder_target
        data["disorder"] = disorder

    theta_updates: dict = {}
    for name in ("theta1a", "theta2a", "theta1b", "theta2b"):
        value = getattr(args, name)
        if value is not None:
            theta_updates.setdefault(name[-1], {})[name[:-1]] = value
    if args.boundary is not None or theta_updates:
        # a flag overrides only the angle it names; the others keep the file's or RunConfig's values
        angles = _file_mapping(data, "angles", RunConfig().angles)
        if args.boundary is not None:
            angles["a"] = _parse_boundary_flag(args.boundary)
            angles.pop("b", None)  # boundary flag applies to both particles
        for particle, comps in theta_updates.items():
            entry = angles.get(particle)
            pair = list(entry) if isinstance(entry, (list, tuple)) else [None, None]
            if "theta1" in comps:
                pair[0] = comps["theta1"]
            if "theta2" in comps:
                pair[1] = comps["theta2"]
            if None in pair:
                raise ConfigError(
                    f"angles.{particle}", "both theta1 and theta2 are needed (flag or config)"
                )
            angles[particle] = pair
        data["angles"] = angles

    if args.axes:
        data["sweep_grid"] = [_parse_axis_flag(a) for a in args.axes]
    return data


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_dict(_config_data(args))
        artifacts = run(config)
        written = write_artifacts(artifacts, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, WindowOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
