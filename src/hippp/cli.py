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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .architecture import (
    Architecture,
    ArchitectureKind,
    ConverterEdge,
    Layer1Design,
    aggregate_rating,
)
from .design import DesignConfig, design_layer1, design_layer2, lshippp_for_budget
from .errors import ConfigError, EnumerationCapError, HipppError, InternalCheckError
from .evaluate import (
    DEFAULT_CONVERTER_EFFICIENCY,
    MetricsRecord,
    sweep_figures,
)
from .powerflow import architecture_edges, optimal_flow
from .supply import MIN_RELATIVE_STD, BatterySupply, flatten

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


def _parse_grid(parser, key, default):
    """A non-negative, finite, strictly increasing [evaluate] list; NaN fails both tests."""
    grid = _parse_float_list(parser, "evaluate", key, default)
    if any(not 0.0 <= value < np.inf for value in grid):
        raise ConfigError(f"[evaluate] {key}: values must be non-negative and finite, not NaN")
    if any(not b > a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"[evaluate] {key}: values must be strictly increasing")
    return grid


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

    try:
        supply = BatterySupply(
            mean_power=_parse_scalar(parser, "supply", "mean_power", float, 1.0),
            std_power=_parse_scalar(parser, "supply", "std_power", float, 0.2),
            count=_parse_scalar(parser, "supply", "count", int, 9),
        )
        design = DesignConfig(
            num_layer1=_parse_scalar(parser, "design", "num_layer1", int, 3),
            num_rating_sets=_parse_scalar(parser, "design", "num_rating_sets", int, 2),
            layer2_trial_ratings=_parse_float_list(
                parser, "design", "layer2_trial_ratings", DesignConfig().layer2_trial_ratings
            ),
            monte_carlo_trials=_parse_scalar(parser, "design", "monte_carlo_trials", int, 1000),
            base_seed=_parse_scalar(parser, "design", "base_seed", int, 0),
        )
    except HipppError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid supply/design values: {exc}") from exc

    kind_tokens = _parse_scalar(parser, "evaluate", "kinds", str, "lshippp, cppp, fpp")
    kinds = []
    for token in kind_tokens.replace(",", " ").split():
        try:
            kinds.append(ArchitectureKind(token.strip().lower()))
        except ValueError as exc:
            raise ConfigError(f"[evaluate] kinds: unknown architecture {token!r}") from exc
    if not kinds:
        raise ConfigError("[evaluate] kinds: must list at least one architecture")
    if len(set(kinds)) != len(kinds):
        raise ConfigError("[evaluate] kinds: architectures must not repeat")

    trials = _parse_scalar(parser, "evaluate", "trials", int, 1000)
    if trials < 1:
        raise ConfigError("[evaluate] trials: must be positive")
    efficiency = _parse_scalar(
        parser, "evaluate", "converter_efficiency", float, DEFAULT_CONVERTER_EFFICIENCY
    )
    if not 0.0 < efficiency <= 1.0:
        raise ConfigError("[evaluate] converter_efficiency: must lie in (0, 1]")
    budget = _parse_scalar(parser, "evaluate", "rating_budget", float, 0.15)
    if not 0.0 <= budget < np.inf:
        raise ConfigError("[evaluate] rating_budget: must be non-negative and finite, not NaN")
    seed = _parse_scalar(parser, "evaluate", "seed", int, 0)
    if seed < 0:
        raise ConfigError("[evaluate] seed: must be non-negative")
    sigma_grid = _parse_grid(parser, "sigma_grid", _DEFAULT_SIGMA_GRID)
    for sigma in sigma_grid:  # BatterySupply's floor, checked here to name the key
        if 0.0 < sigma < MIN_RELATIVE_STD * supply.mean_power:
            raise ConfigError(
                f"[evaluate] sigma_grid: each spread is a std_power and must be 0 or at least "
                f"{MIN_RELATIVE_STD} * mean_power, got {sigma!r}: a smaller spread cannot be flattened"
            )

    return ExperimentConfig(
        supply=supply,
        design=design,
        kinds=tuple(kinds),
        rating_grid=_parse_grid(parser, "rating_grid", _DEFAULT_RATING_GRID),
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


def _read_design(path: str) -> tuple[BatterySupply, Architecture]:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read design {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse design {path}: {exc}") from exc

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
        rating = _parse_scalar(parser, "layer1", f"rating_{i}", float, None)
        edges.append(ConverterEdge(src, dst, rating))
        processed.append(_parse_scalar(parser, "layer1", f"processed_{i}", float, None))
    layer1 = Layer1Design(
        edges=tuple(edges),
        rating_partitions=_parse_scalar(parser, "design", "num_rating_sets", int, None),
        processed_at_design=tuple(processed),
    )
    if _parse_scalar(parser, "layer2", "count", int, None) != supply.count - 1:
        raise ConfigError(f"[layer2] count: a {supply.count}-battery ladder has {supply.count - 1} rungs")
    rung = _parse_scalar(parser, "layer2", "rating", float, None)
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
    common.add_argument("--seed", type=int, default=None, help="evaluation seed override")
    common.add_argument("--trials", type=int, default=None, help="Monte Carlo trials override")
    common.add_argument("--threads", type=int, default=1, help="parallel sweep workers")

    sub.add_parser("design", parents=[common], help="run the two-stage design")
    sub.add_parser("sweep", parents=[common], help="run rating and heterogeneity sweeps")

    flow = sub.add_parser("flow", help="solve one operating point for a saved design")
    flow.add_argument("design_file", help="design artifact written by the design command")
    flow.add_argument("capabilities_file", help="text file of per-battery capabilities")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed: must be non-negative")
        updates["seed"] = args.seed
    if args.trials is not None:
        if args.trials < 1:
            raise ConfigError("--trials: must be positive")
        updates["trials"] = args.trials
        updates["design"] = replace(cfg.design, monte_carlo_trials=args.trials)
    return replace(cfg, **updates) if updates else cfg


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "flow":
            cmd_flow(args.design_file, args.capabilities_file)
            return 0
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        out_dir = args.out if args.out is not None else cfg.out_dir
        if args.threads is not None and args.threads < 1:
            raise ConfigError("--threads: must be positive")
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
