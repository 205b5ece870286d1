"""Command-line front end.

Three commands:

* ``design``: run the two-stage design for one supply and write the chosen
  layer-1 edges and ratings, the layer-2 rating curve, and the expected set
  to a structured text file that ``flow`` can read back.
* ``sweep``: run the rating sweep, the heterogeneity sweep, and the
  trade-off frontier; write one CSV per figure family and print a one-line
  summary per architecture.
* ``flow``: solve a single operating point for a design file and a
  capability listing, and print the full flow report.

Exit codes: 0 on success, 2 for configuration problems (malformed config or
input files, bad values), 3 for runtime failures such as the interconnection
enumeration cap. Set HIPPP_LOG=debug|info|warning to control verbosity.
"""

from __future__ import annotations

import argparse
import configparser
import csv

# argparse's gettext imports locale when it builds its first parser; import it
# with hippp.cli so that a call imports no module
import locale  # noqa: F401
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .architecture import (
    Architecture,
    ArchitectureKind,
    ConverterEdge,
    Layer1Design,
    _check_budget,
    aggregate_rating,
)
from .design import DesignConfig, design_layer1, design_layer2, lshippp_for_budget
from .errors import ConfigError, EnumerationCapError, HipppError, InternalCheckError, whole
from .evaluate import (
    DEFAULT_CONVERTER_EFFICIENCY,
    MetricsRecord,
    _check_efficiency,
    _grid,
    _normalize_kinds,
    _sigma_points,
    sweep_figures,
)
from .powerflow import architecture_edges, optimal_flow
from .supply import BatterySupply, flatten

log = logging.getLogger(__name__)

CSV_HEADER = (
    "arch", "rating_norm", "heterogeneity", "trials", "seed",
    "util_mean", "util_std", "eff_mean", "proc_mean", "out_mean",
)

_DEFAULT_RATING_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50)
_DEFAULT_SIGMA_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


@dataclass(frozen=True)
class ExperimentConfig:
    supply: BatterySupply
    design: DesignConfig
    kinds: tuple[ArchitectureKind, ...]
    rating_grid: tuple[float, ...]
    sigma_grid: tuple[float, ...]
    rating_budget: float
    converter_efficiency: float
    trials: int
    seed: int
    out_dir: str


def _sig6(value: float) -> str:
    return f"{value:.6g}"


@contextmanager
def _key(label: str):
    """Raise a library HipppError from inside as a ConfigError that starts with `label`, the key at fault."""
    try:
        yield
    except ConfigError:
        raise
    except HipppError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _parse_scalar(parser, section, key, caster, default):
    if not parser.has_option(section, key):
        if default is None:
            raise ConfigError(f"[{section}] {key}: required key is missing")
        return default
    raw = parser.get(section, key)
    try:
        return caster(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} ({exc})") from exc


def _parse_float_list(parser, section, key, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        values = tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} ({exc})") from exc
    if not values:
        raise ConfigError(f"[{section}] {key}: list must not be empty")
    return values


def load_config(path: str) -> ExperimentConfig:
    """Read the flat key-value experiment description; see README for keys.

    A `;` after a value, with whitespace before it, starts a comment.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    with _key("[supply]"):
        supply = BatterySupply(
            mean_power=_parse_scalar(parser, "supply", "mean_power", float, 1.0),
            std_power=_parse_scalar(parser, "supply", "std_power", float, 0.2),
            count=_parse_scalar(parser, "supply", "count", int, 9),
        )
    with _key("[design]"):
        design = DesignConfig(
            num_layer1=_parse_scalar(parser, "design", "num_layer1", int, 3),
            num_rating_sets=_parse_scalar(parser, "design", "num_rating_sets", int, 2),
            layer2_trial_ratings=_parse_float_list(
                parser, "design", "layer2_trial_ratings", DesignConfig().layer2_trial_ratings
            ),
            monte_carlo_trials=_parse_scalar(parser, "design", "monte_carlo_trials", int, 1000),
            base_seed=_parse_scalar(parser, "design", "base_seed", int, 0),
        )

    # each [evaluate] value goes through the library rule that will use it
    names = _parse_scalar(parser, "evaluate", "kinds", str, "lshippp, cppp, fpp")
    with _key("[evaluate] kinds"):
        kinds = _normalize_kinds(names.lower().replace(",", " ").split())
    trials = _parse_scalar(parser, "evaluate", "trials", int, 1000)
    with _key("[evaluate] trials"):
        trials = whole(trials, "trials", 1)
    efficiency = _parse_scalar(parser, "evaluate", "converter_efficiency", float, DEFAULT_CONVERTER_EFFICIENCY)
    with _key("[evaluate] converter_efficiency"):
        _check_efficiency(efficiency)
    budget = _parse_scalar(parser, "evaluate", "rating_budget", float, 0.15)
    with _key("[evaluate] rating_budget"):
        _check_budget(budget)
    seed = _parse_scalar(parser, "evaluate", "seed", int, 0)
    with _key("[evaluate] seed"):
        seed = whole(seed, "seed")
    rating_grid = _parse_float_list(parser, "evaluate", "rating_grid", _DEFAULT_RATING_GRID)
    with _key("[evaluate] rating_grid"):
        _grid(rating_grid, "rating grid")
    sigma_grid = _parse_float_list(parser, "evaluate", "sigma_grid", _DEFAULT_SIGMA_GRID)
    with _key("[evaluate] sigma_grid"):  # each spread is a BatterySupply's std_power
        _sigma_points(supply.mean_power, sigma_grid, budget, supply.count)

    return ExperimentConfig(
        supply=supply,
        design=design,
        kinds=tuple(kinds),
        rating_grid=rating_grid,
        sigma_grid=sigma_grid,
        rating_budget=budget,
        converter_efficiency=efficiency,
        trials=trials,
        seed=seed,
        out_dir=_parse_scalar(parser, "output", "directory", str, "out"),
    )


def _write_records(path: Path, records: list[MetricsRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([
                r.architecture_kind,
                _sig6(r.rating_norm),
                _sig6(r.heterogeneity),
                r.trials,
                r.seed,
                _sig6(r.utilization),
                _sig6(r.utilization_std),
                _sig6(r.system_efficiency),
                _sig6(r.processed_norm),
                _sig6(r.output_norm),
            ])


def cmd_design(cfg: ExperimentConfig, out_dir: str) -> Path:
    """Run both design stages and write the design artifact; returns its path."""
    expected = flatten(cfg.supply)
    layer1 = design_layer1(expected, cfg.design)
    rung, curve = design_layer2(layer1, cfg.supply, cfg.design, budget=cfg.rating_budget)

    out = configparser.ConfigParser()
    out["supply"] = {
        "mean_power": repr(cfg.supply.mean_power),
        "std_power": repr(cfg.supply.std_power),
        "count": str(cfg.supply.count),
    }
    out["design"] = {
        "num_layer1": str(cfg.design.num_layer1),
        "num_rating_sets": str(cfg.design.num_rating_sets),
        "monte_carlo_trials": str(cfg.design.monte_carlo_trials),
        "base_seed": str(cfg.design.base_seed),
        "rating_budget": repr(cfg.rating_budget),
    }
    out["expected_set"] = {
        f"capability_{i}": repr(float(v)) for i, v in enumerate(expected.capabilities)
    }
    layer1_section = {"count": str(len(layer1.edges))}
    for i, (edge, processed) in enumerate(zip(layer1.edges, layer1.processed_at_design)):
        layer1_section[f"edge_{i}"] = f"{edge.from_battery},{edge.to_battery}"
        layer1_section[f"rating_{i}"] = repr(edge.rating)
        layer1_section[f"processed_{i}"] = repr(processed)
    out["layer1"] = layer1_section
    out["layer2"] = {"count": str(expected.count - 1), "rating": repr(rung)}
    out["layer2_curve"] = {}
    for i, (rating, util) in enumerate(curve.points):
        out["layer2_curve"][f"rating_{i}"] = repr(rating)
        out["layer2_curve"][f"utilization_{i}"] = repr(util)

    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "design.txt"
    with open(path, "w", encoding="utf-8") as handle:
        out.write(handle)

    arch = lshippp_for_budget(layer1, expected, cfg.rating_budget)
    print(f"design written to {path}")
    print(f"layer 1: {len(layer1.edges)} converters, total rating {_sig6(layer1.total_rating)}")
    print(f"layer 2: {expected.count - 1} converters rated {_sig6(rung)} each")
    print(f"aggregate normalized rating {_sig6(aggregate_rating(arch))}")
    return path


def cmd_sweep(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> list[Path]:
    """Run all sweeps and write one CSV per figure family; returns the paths."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)

    rating_records, het_records = sweep_figures(
        cfg.kinds, cfg.supply, cfg.rating_grid, cfg.sigma_grid, cfg.rating_budget, cfg.trials, cfg.seed,
        design_cfg=cfg.design, converter_efficiency=cfg.converter_efficiency, workers=workers,
    )

    # the frontier reads off the same records the rating sweep produced
    paths = {
        "utilization_vs_rating.csv": rating_records,
        "efficiency_vs_rating.csv": rating_records,
        "frontier.csv": rating_records,
        "utilization_vs_heterogeneity.csv": het_records,
    }
    written = []
    for name, records in paths.items():
        path = directory / name
        _write_records(path, records)
        written.append(path)
        log.info("wrote %s (%d rows)", path, len(records))

    for kind in cfg.kinds:
        at_budget = min(
            (r for r in rating_records if r.architecture_kind == kind.value),
            key=lambda r: abs(r.rating_norm - cfg.rating_budget),
        )
        print(
            f"[{kind.value}] rating {_sig6(at_budget.rating_norm)} "
            f"sigma {_sig6(at_budget.heterogeneity)}: "
            f"utilization {_sig6(at_budget.utilization)} "
            f"efficiency {_sig6(at_budget.system_efficiency)} "
            f"processed {_sig6(at_budget.processed_norm)}"
        )
    return written


def _design_rating(parser, path: str, section: str, key: str) -> float:
    rating = _parse_scalar(parser, section, key, float, None)
    if not rating >= 0.0:
        raise ConfigError(f"design {path}: [{section}] {key}: rating must be non-negative, not NaN")
    return rating


def _read_design(path: str) -> tuple[BatterySupply, Architecture]:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read design {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse design {path}: {exc}") from exc

    with _key(f"design {path}: [supply]"):
        supply = BatterySupply(
            mean_power=_parse_scalar(parser, "supply", "mean_power", float, None),
            std_power=_parse_scalar(parser, "supply", "std_power", float, None),
            count=_parse_scalar(parser, "supply", "count", int, None),
        )
    n_edges = _parse_scalar(parser, "layer1", "count", int, None)
    edges = []
    processed = []
    for i in range(n_edges):
        raw = _parse_scalar(parser, "layer1", f"edge_{i}", str, None)
        try:
            src, dst = (int(tok) for tok in raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"[layer1] edge_{i}: cannot parse {raw!r}") from exc
        rating = _design_rating(parser, path, "layer1", f"rating_{i}")
        with _key(f"design {path}: [layer1] edge_{i}"):
            edges.append(ConverterEdge(src, dst, rating))
        processed.append(_parse_scalar(parser, "layer1", f"processed_{i}", float, None))
    partitions = _parse_scalar(parser, "design", "num_rating_sets", int, None)
    with _key(f"design {path}: [design] num_rating_sets"):
        whole(partitions, "num_rating_sets", 1)  # at most one set per edge is Layer1Design's check, under [layer1]
    with _key(f"design {path}: [layer1]"):
        layer1 = Layer1Design(edges=tuple(edges), rating_partitions=partitions, processed_at_design=tuple(processed))
    if _parse_scalar(parser, "layer2", "count", int, None) != supply.count - 1:
        raise ConfigError(f"[layer2] count: a {supply.count}-battery ladder has {supply.count - 1} rungs")
    rung = _design_rating(parser, path, "layer2", "rating")
    arch = Architecture(ArchitectureKind.LSHIPPP, supply.count, flatten(supply).total_power, rung, layer1)
    return supply, arch


def _read_capabilities(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            tokens = []
            for line in handle:
                line = line.split("#", 1)[0]
                tokens.extend(line.split())
    except OSError as exc:
        raise ConfigError(f"cannot read capabilities {path}: {exc}") from exc
    try:
        values = np.array([float(tok) for tok in tokens])
    except ValueError as exc:
        raise ConfigError(f"capabilities {path}: {exc}") from exc
    if values.size == 0:
        raise ConfigError(f"capabilities {path}: file lists no values")
    if not np.all((values > 0.0) & (values < np.inf)):
        raise ConfigError(f"capabilities {path}: all values must be positive and finite")
    return values


def cmd_flow(design_file: str, capabilities_file: str) -> None:
    """Solve and print one operating point for a saved design."""
    supply, arch = _read_design(design_file)
    caps = _read_capabilities(capabilities_file)
    if caps.size != arch.num_batteries:
        raise ConfigError(
            f"capabilities {capabilities_file}: got {caps.size} values "
            f"for a {arch.num_batteries}-battery design"
        )
    caps = np.sort(caps)
    sol = optimal_flow(caps, arch)
    edges = architecture_edges(arch)
    n_layer1 = len(arch.layer1.edges)

    print(f"batteries: {arch.num_batteries}")
    print("capabilities (sorted): " + " ".join(_sig6(v) for v in caps))
    print(f"string current: {_sig6(sol.string_current)}")
    print(f"output power: {_sig6(sol.output_power)} (utilization {_sig6(sol.output_power / caps.sum())})")
    print(f"processed power: {_sig6(sol.processed_power)}")
    for idx, (edge, flow) in enumerate(zip(edges, sol.converter_flows)):
        layer = 1 if idx < n_layer1 else 2
        print(
            f"layer {layer} converter {edge.from_battery}->{edge.to_battery} "
            f"rating {_sig6(edge.rating)} flow {_sig6(flow)}"
        )
    print("battery powers: " + " ".join(_sig6(v) for v in sol.battery_powers))


def _setup_logging() -> None:
    level_name = os.environ.get("HIPPP_LOG", "warning").strip().lower()
    levels = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING,
              "error": logging.ERROR, "quiet": logging.ERROR}
    logging.basicConfig(level=levels.get(level_name, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hippp",
        description="Design and evaluate partial power processing architectures "
                    "for heterogeneous battery strings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config file")
    common.add_argument("--out", default=None, help="output directory (overrides config)")
    common.add_argument("--seed", type=int, default=None, help="[evaluate] seed and [design] base_seed override")
    common.add_argument("--trials", type=int, default=None, help="Monte Carlo trials override")
    common.add_argument("--threads", type=int, default=1, help="parallel sweep workers (design: 1 only)")

    sub.add_parser("design", parents=[common], help="run the two-stage design")
    sub.add_parser("sweep", parents=[common], help="run rating and heterogeneity sweeps")

    flow = sub.add_parser("flow", help="solve one operating point for a saved design")
    flow.add_argument("design_file", help="design artifact written by the design command")
    flow.add_argument("capabilities_file", help="text file of per-battery capabilities")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """--seed sets both seeds and --trials both trial counts, the evaluation's and the design's."""
    updates, design = {}, {}
    if args.seed is not None:
        with _key("--seed"):
            updates["seed"] = design["base_seed"] = whole(args.seed, "seed")
    if args.trials is not None:
        with _key("--trials"):
            updates["trials"] = design["monte_carlo_trials"] = whole(args.trials, "trials", 1)
    return replace(cfg, design=replace(cfg.design, **design), **updates)


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "flow":
            cmd_flow(args.design_file, args.capabilities_file)
            return 0
        if args.command == "design" and args.threads != 1:
            raise ConfigError("--threads: hippp design runs in one process and takes only --threads 1")
        with _key("--threads"):
            whole(args.threads, "threads", 1)
        cfg = _apply_overrides(load_config(args.config), args)
        out_dir = args.out if args.out is not None else cfg.out_dir
        if args.command == "design":
            cmd_design(cfg, out_dir)
        else:
            cmd_sweep(cfg, out_dir, workers=args.threads)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EnumerationCapError, InternalCheckError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except HipppError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
