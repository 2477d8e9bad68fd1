"""Command-line experiment runner.

Subcommands: walk (single particle), pair (two particles), sweep (entropy
heatmap over two angle axes), phase-diagram. Flags override config-file values.
Exit codes: 0 success, 2 config validation error (a config file that cannot
be read or parsed, or an output directory that cannot be written, included),
3 runtime numerical error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, NumericalError, WindowOverflowError
from .experiments import (
    RUN_KIND_ALIASES, RUN_KINDS, RunConfig, _read_config_file, config_from_dict, run, write_artifacts,
)


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


# subcommand -> (help, its run kinds); the first kind is the default
_SUBCOMMANDS = {
    "walk": ("single-particle walk", ("hadamard", "single_split")),
    "pair": ("two-particle walk", ("pair",)),
    "sweep": ("entropy heatmap over two angle axes", ("entropy_sweep",)),
    "phase-diagram": ("winding number over the angle plane", ("phase_diagram",)),
}

# flag -> (config fields, argparse keywords). A subcommand takes the flag when
# one of its run kinds reads every field named; the flag sets the first. Walker
# b's flags also name initial_state, since only pair runs have a walker b. A
# flag whose dest is its field's name sets that field as given.
_FLAGS = {
    "--seed": (("master_seed",), dict(type=int, dest="master_seed", help="master seed (u64)")),
    "--steps": (("steps",), dict(type=int, dest="steps", help="number of time steps")),
    "--window": (
        ("window",),
        dict(type=int, dest="window", help="lattice half-width (default steps + 1 + max |start position|)"),
    ),
    "--disorder": (("disorder",), dict(help="none|weak|strong|width=<radians>")),
    "--disorder-target": (("disorder",), dict(choices=("a", "b", "both"))),
    "--state": (("initial_state",), dict(choices=("psi+", "psi-", "sep"), help="initial pair state")),
    "--theta1a": (("angles",), dict(type=float, help="theta1a in radians")),
    "--theta2a": (("angles",), dict(type=float, help="theta2a in radians")),
    "--theta1b": (("angles", "initial_state"), dict(type=float, help="theta1b in radians")),
    "--theta2b": (("angles", "initial_state"), dict(type=float, help="theta2b in radians")),
    "--boundary": (("angles",), dict(help="t1-,t2-,t1+,t2+ boundary angles (every walker)")),
    "--ensemble": (("ensemble_size",), dict(type=int, dest="ensemble_size", help="replicates to average")),
    "--axis": (("sweep_grid",), dict(action="append", dest="axes", help="name:min:max:count, twice")),
    "--sweep-scalar": (("sweep_scalar",), dict(choices=("final", "longmean"), dest="sweep_scalar")),
    "--k-points": (("k_points",), dict(type=int, dest="k_points")),
    "--grid-n": (("grid_n",), dict(type=int, dest="grid_n")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topowalk", description="Split-step quantum walk experiments"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (text, kinds) in _SUBCOMMANDS.items():
        sub = subs.add_parser(command, help=text)
        sub.add_argument("--config", help="JSON run config; flags override its fields")
        sub.add_argument("--out", default="out", help="output directory (default: ./out)")
        if command == "walk":
            sub.add_argument("--kind", choices=("hadamard", "split"), help="coin scheme (default hadamard)")
        for flag, (fields, keywords) in _FLAGS.items():
            if any(set(fields) <= set(RUN_KINDS[kind][0]) for kind in kinds):
                sub.add_argument(flag, **keywords)
    return parser


def _file_mapping(data: dict, key: str, default: dict) -> dict:
    """A copy of the config file's mapping under key, for flags to update."""
    value = data.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(key, f"expected a mapping, got {value!r}")
    return dict(value)


def _config_data(args: argparse.Namespace) -> dict:
    data = _read_config_file(args.config) if args.config else {}

    flags = vars(args)  # holds only the flags of this subcommand
    kinds = _SUBCOMMANDS[args.command][1]
    if flags.get("kind") is not None:
        data["run_kind"] = "hadamard" if args.kind == "hadamard" else "single_split"
    kind = str(data.setdefault("run_kind", kinds[0]))
    if RUN_KIND_ALIASES.get(kind, kind) not in kinds:
        raise ConfigError("run_kind", f"{args.command} runs {' or '.join(kinds)}, not {kind!r}")

    for fields, keywords in _FLAGS.values():
        if keywords.get("dest") == fields[0] and flags.get(fields[0]) is not None:
            data[fields[0]] = flags[fields[0]]
    if flags.get("state") is not None:
        state = dict(data.get("initial_state") or {}) if isinstance(data.get("initial_state"), dict) else {}
        state["kind"] = args.state
        data["initial_state"] = state

    if flags.get("disorder") is not None or flags.get("disorder_target") is not None:
        disorder = _file_mapping(data, "disorder", {})
        if args.disorder is not None:
            disorder.update(_parse_disorder_flag(args.disorder))
        if args.disorder_target is not None:
            disorder["target"] = args.disorder_target
        data["disorder"] = disorder

    theta_updates: dict = {}
    for name in ("theta1a", "theta2a", "theta1b", "theta2b"):
        if flags.get(name) is not None:
            theta_updates.setdefault(name[-1], {})[name[:-1]] = flags[name]
    if flags.get("boundary") is not None or theta_updates:
        # a flag overrides only the angle it names; the others keep the file's or RunConfig's values
        angles = _file_mapping(data, "angles", dict(RunConfig().angles))
        if flags.get("boundary") is not None:
            angles["a"] = _parse_boundary_flag(args.boundary)
            angles.pop("b", None)  # boundary flag applies to every walker
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

    if flags.get("axes"):
        data["sweep_grid"] = [_parse_axis_flag(a) for a in args.axes]
    return data


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_dict(_config_data(args))
        artifacts = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, WindowOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        written = write_artifacts(artifacts, args.out)
    except OSError as exc:  # the output directory cannot be made, or a file in it written
        print(f"error: cannot write to {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
