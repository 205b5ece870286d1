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

The config and the design file are both checked against their tables of
keys, and ``design`` writes its file from its table. Exit codes: 0 on
success, 2 for configuration problems (malformed config or input files, bad
values, unknown keys, output paths that cannot be written), 3 for runtime
failures such as the enumeration cap.
HIPPP_LOG=debug|info|warning, read at every main() call, sets verbosity.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io

# argparse's gettext imports locale when it builds its first parser; import it
# with hippp.cli so that a call imports no module
import locale  # noqa: F401
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .architecture import (
    Architecture,
    ArchitectureKind,
    ConverterEdge,
    Layer1Design,
    _check_sparse,
    aggregate_rating,
)
from .design import DesignConfig, Layer2Curve, design_layer1, design_layer2, lshippp_for_budget
from .errors import ConfigError, EnumerationCapError, HipppError, InternalCheckError, ParameterError
from .errors import efficiency, grid, nonnegative, nonnegative_finite, whole
from .evaluate import DEFAULT_CONVERTER_EFFICIENCY, MetricsRecord, _normalize_kinds, sweep_figures
from .powerflow import architecture_edges, optimal_flow
from .supply import BatterySupply, ExpectedSet, flatten

log = logging.getLogger(__name__)

CSV_HEADER = (
    "arch", "rating_norm", "heterogeneity", "trials", "seed",
    "util_mean", "util_std", "eff_mean", "proc_mean", "out_mean",
)


class ExperimentConfig(NamedTuple):
    supply: BatterySupply = BatterySupply(1.0, 0.2, 9)
    design: DesignConfig = DesignConfig()
    kinds: tuple[ArchitectureKind, ...] = (ArchitectureKind.LSHIPPP, ArchitectureKind.CPPP, ArchitectureKind.FPP)
    rating_grid: tuple[float, ...] = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50)
    sigma_grid: tuple[float, ...] = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
    rating_budget: float = 0.15
    converter_efficiency: float = DEFAULT_CONVERTER_EFFICIENCY
    trials: int = 1000
    seed: int = 0
    directory: str = "out"


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


class _Key(NamedTuple):
    """An INI key; a `{i}` in `name` makes it one key per index. `read` parses the key's text, raising a
    ValueError or TypeError if it cannot, and `check(value, got)` holds the value to the library's rules and
    to the sections read before it, raising a HipppError."""

    name: str
    read: Callable
    check: Callable | None = None


class _Section(NamedTuple):
    """An INI section and its keys, plain keys first. `count(got, given)` is how many indices its `{i}` keys
    take, from the sections read so far and the file's keys for it. `build` makes its values one object,
    which the writer reads back by key. A missing key takes the attribute of `defaults`, or is required."""

    name: str
    keys: tuple[_Key, ...]
    count: Callable | None = None
    build: Callable | None = None
    defaults: object = None


def _floats(text: str) -> tuple[float, ...]:
    """A grid's values; the grid rule (errors.grid) refuses an empty one."""
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _whole(name: str, low: int) -> _Key:
    """A key holding a whole number of at least `low`, by the library's one whole-number rule."""
    return _Key(name, int, lambda number, got: whole(number, name, low))


def _layer1_count(count: int, got) -> None:
    m = got["design"][0]  # [design] num_layer1, read and checked before [layer1]
    if count != m:
        raise ParameterError(f"layer 1 lists {count} converters, but [design] num_layer1 = {m}")


def _rungs(count: int, got) -> None:
    n = got["supply"].count
    if count != n - 1:
        raise ParameterError(f"a {n}-battery ladder has {n - 1} rungs")


def _edge(text: str) -> tuple[int, int]:
    """The `from,to` endpoints of a layer-1 converter."""
    src, dst = (int(tok) for tok in text.split(","))
    return src, dst


# how the writer formats a value, by the read of its key; a float by its shortest repr
_FORMATS = {int: str, _edge: "{0[0]},{0[1]}".format}
_SUPPLY_KEYS = (_Key("mean_power", float), _Key("std_power", float), _Key("count", int))
_RATING_BUDGET = _Key("rating_budget", float, lambda budget, got: nonnegative_finite(budget, "rating budget"))

# the experiment config, each section's defaults those of ExperimentConfig() (on the class, a field is its getter)
_DEFAULTS = ExperimentConfig()
_CONFIG = (
    _Section("supply", _SUPPLY_KEYS, build=BatterySupply, defaults=_DEFAULTS.supply),
    _Section("design", (
        _Key("num_layer1", int, lambda m, got: _check_sparse(m, got["supply"].count)),
        _Key("num_rating_sets", int), _Key("layer2_trial_ratings", _floats),
        _Key("monte_carlo_trials", int), _Key("base_seed", int),
    ), build=DesignConfig, defaults=_DEFAULTS.design),
    _Section("evaluate", (
        _Key("kinds", lambda text: tuple(_normalize_kinds(text.lower().replace(",", " ").split()))),
        _Key("rating_grid", _floats, lambda values, got: grid(values, "rating grid")),
        # each spread is the std_power of a BatterySupply like the config's
        _Key("sigma_grid", _floats, lambda values, got: [
            BatterySupply(got["supply"].mean_power, sigma, got["supply"].count) for sigma in grid(values, "sigma grid")
        ]),
        _RATING_BUDGET,
        _Key("converter_efficiency", float, lambda value, got: efficiency(value)),
        _whole("trials", 1),
        _whole("seed", 0),
    ), build=dict, defaults=_DEFAULTS),
    _Section("output", (_Key("directory", str),), build=dict, defaults=_DEFAULTS),
)

# design.txt, as `hippp design` writes it and `hippp flow` reads it back
_DESIGN_FILE = (
    _Section("supply", _SUPPLY_KEYS, build=BatterySupply),
    # the config's design settings and budget, held to the config's rules
    _Section("design", (
        _Key("num_layer1", int, lambda m, got: _check_sparse(whole(m, "num_layer1", 1), got["supply"].count)),
        _whole("num_rating_sets", 1), _whole("monte_carlo_trials", 1), _whole("base_seed", 0), _RATING_BUDGET,
    )),
    _Section("expected_set", (_Key("capability_{i}", float),), count=lambda got, given: got["supply"].count),
    _Section("layer1", (
        _Key("count", int, _layer1_count), _Key("edge_{i}", _edge, lambda edge, got: ConverterEdge(*edge, 0.0)),
        _Key("rating_{i}", float, lambda rating, got: nonnegative(rating, "rating")), _Key("processed_{i}", float),
    ), count=lambda got, given: got["layer1"]["count"]),
    _Section("layer2", (
        _Key("count", int, _rungs), _Key("rating", float, lambda rating, got: nonnegative(rating, "rating")),
    )),
    # as many points as the file lists
    _Section("layer2_curve", (_Key("rating_{i}", float), _Key("utilization_{i}", float)),
             count=lambda got, given: -(-len(given) // 2)),
)


def _layout(section: _Section, count):
    """(key, name, index) of each key of `section` in file order: plain keys, then `{i}` keys for `count()` i."""
    yield from ((key, key.name, None) for key in section.keys if "{i}" not in key.name)
    indexed = [key for key in section.keys if "{i}" in key.name]
    for i in range(count() if indexed else 0):
        yield from ((key, key.name.format(i=i), i) for key in indexed)


def _read_ini(path: str, table) -> dict:
    """The sections of INI file `path` checked against `table`, each as the object its `build` makes or as a
    tuple of its values in key order, an `{i}` key's a list. A section or key not in the table, one under
    [DEFAULT] included, is refused. A `;` after a value, with whitespace before it, starts a comment."""
    # no default section: [DEFAULT] is a section like any other, and in no table
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None, default_section="")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse: {exc}") from exc
    for name in (name for name in parser.sections() if name not in {section.name for section in table}):
        first = next(iter(parser[name]), None)
        raise ConfigError(f"[{name}] {first}: unknown key" if first else f"[{name}]: unknown section")
    got = {}
    for section in table:
        given = parser[section.name] if parser.has_section(section.name) else {}
        values = got[section.name] = {key.name: [] for key in section.keys}
        for key, name, i in _layout(section, lambda: section.count(got, given)):
            label = f"[{section.name}] {name}"
            with _key(label):
                if name in given:
                    try:
                        value = key.read(given[name])
                    except (TypeError, ValueError) as exc:
                        raise ConfigError(f"{label}: cannot parse {given[name]!r} ({exc})") from exc
                elif section.defaults is None:
                    raise ConfigError(f"{label}: required key is missing")
                else:
                    value = getattr(section.defaults, key.name)
                if key.check:
                    key.check(value, got)
            if i is None:
                values[key.name] = value
            else:
                values[key.name].append(value)
        read = {name for _, name, _ in _layout(section, lambda: len(values[section.keys[-1].name]))}
        for name in (name for name in given if name not in read):
            raise ConfigError(f"[{section.name}] {name}: unknown key")
        with _key(f"[{section.name}]"):
            got[section.name] = section.build(**values) if section.build else tuple(values.values())
    return got


def _write_ini(handle, table, sections) -> None:
    """Write `sections`, per section of `table` what `_read_ini` gives for it, in ConfigParser.write's layout."""
    for section, values in zip(table, sections, strict=True):
        by_name = dict(zip((key.name for key in section.keys), values, strict=True))
        handle.write(f"[{section.name}]\n")
        for key, name, i in _layout(section, lambda: len(by_name[section.keys[-1].name])):
            value = by_name[key.name] if i is None else by_name[key.name][i]
            handle.write(f"{name} = {_FORMATS.get(key.read, lambda v: repr(float(v)))(value)}\n")
        handle.write("\n")


def load_config(path: str) -> ExperimentConfig:
    """The experiment config at `path`, read against `_CONFIG`; see README for keys."""
    supply, design, evaluate, output = _read_ini(path, _CONFIG).values()
    return ExperimentConfig(supply, design, **evaluate, **output)


def _records_csv(records: list[MetricsRecord]) -> str:
    """The CSV text of `records` under CSV_HEADER, with csv's CRLF line ends."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_HEADER)
    writer.writerows(
        [kind, _sig6(rating), _sig6(sigma), trials, seed, *map(_sig6, means)]
        for kind, rating, sigma, trials, seed, *means in records
    )
    return buffer.getvalue()


@contextmanager
def _writing(path: Path):
    """Raise an OSError from making or writing output `path` as a ConfigError that names it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _output_directory(out_dir: str) -> Path:
    """The output directory `out_dir`, made with its parents if missing."""
    directory = Path(out_dir)
    with _writing(directory):
        directory.mkdir(parents=True, exist_ok=True)
    return directory


def cmd_design(cfg: ExperimentConfig, out_dir: str) -> Path:
    """Run both design stages and write the design artifact; returns its path."""
    directory = _output_directory(out_dir)  # before the search: an unusable directory stops first
    expected = flatten(cfg.supply)
    layer1 = design_layer1(expected, cfg.design)
    arch = lshippp_for_budget(layer1, expected, cfg.rating_budget)  # before the curve: a bad budget stops first
    _, curve = design_layer2(layer1, cfg.supply, cfg.design)

    sections = (
        cfg.supply,
        (cfg.design.num_layer1, cfg.design.num_rating_sets, cfg.design.monte_carlo_trials, cfg.design.base_seed,
         cfg.rating_budget),
        (expected.capabilities,),
        (len(layer1.edges), [(e.from_battery, e.to_battery) for e in layer1.edges], [e.rating for e in layer1.edges],
         layer1.processed_at_design),
        (expected.count - 1, arch.rating),
        tuple(zip(*curve.points)),
    )
    path = directory / "design.txt"
    with _writing(path), open(path, "w", encoding="utf-8") as handle:
        _write_ini(handle, _DESIGN_FILE, sections)

    print(f"design written to {path}")
    print(f"layer 1: {len(layer1.edges)} converters, total rating {_sig6(layer1.total_rating)}")
    print(f"layer 2: {expected.count - 1} converters rated {_sig6(arch.rating)} each")
    print(f"aggregate normalized rating {_sig6(aggregate_rating(arch))}")
    return path


def cmd_sweep(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> list[Path]:
    """Run all sweeps and write one CSV per figure family; returns the paths."""
    directory = _output_directory(out_dir)

    rating_records, het_records = sweep_figures(
        cfg.kinds, cfg.supply, cfg.rating_grid, cfg.sigma_grid, cfg.rating_budget, cfg.trials, cfg.seed,
        design_cfg=cfg.design, converter_efficiency=cfg.converter_efficiency, workers=workers,
    )

    # the frontier reads off the same records the rating sweep produced, so the three rating files share one text
    rating = (rating_records, _records_csv(rating_records))
    paths = {
        "utilization_vs_rating.csv": rating,
        "efficiency_vs_rating.csv": rating,
        "frontier.csv": rating,
        "utilization_vs_heterogeneity.csv": (het_records, _records_csv(het_records)),
    }
    written = []
    for name, (records, text) in paths.items():
        path = directory / name
        with _writing(path):
            path.write_text(text, encoding="utf-8", newline="")
        written.append(path)
        log.info("wrote %s (%d rows)", path, len(records))

    for kind in cfg.kinds:
        at_budget = min(
            (r for r in rating_records if r.architecture_kind == kind.value),
            key=lambda r: abs(r.rating_norm - cfg.rating_budget),
        )
        print(f"[{kind.value}] rating {_sig6(at_budget.rating_norm)} sigma {_sig6(at_budget.heterogeneity)}: "
              f"utilization {_sig6(at_budget.utilization)} efficiency {_sig6(at_budget.system_efficiency)} "
              f"processed {_sig6(at_budget.processed_norm)}")
    return written


def _read_design(path: str) -> tuple[BatterySupply, Architecture]:
    """The supply and LS-HiPPP architecture of a design file; every error starts with `design <path>:`."""
    try:
        sections = _read_ini(path, _DESIGN_FILE).values()
        supply, (_, partitions, *_), (capabilities,), (_, pairs, ratings, processed), (_, rung), curve = sections
        with _key("[expected_set]"):
            expected = ExpectedSet(capabilities, supply)
        with _key("[layer1]"):
            edges = tuple(ConverterEdge(src, dst, rating) for (src, dst), rating in zip(pairs, ratings))
            layer1 = Layer1Design(edges, partitions, processed)
            arch = Architecture(ArchitectureKind.LSHIPPP, supply.count, expected.total_power, rung, layer1)
        with _key("[layer2_curve]"):
            Layer2Curve(zip(*curve))
    except ConfigError as exc:
        raise ConfigError(f"design {path}: {exc}") from exc
    return supply, arch


def _read_capabilities(path: str) -> np.ndarray:
    """The numbers listed in file `path`, unchecked: optimal_flow holds them to its rules."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            tokens = [token for line in handle for token in line.split("#", 1)[0].split()]
    except OSError as exc:
        raise ConfigError(f"cannot read capabilities {path}: {exc}") from exc
    try:
        return np.array([float(token) for token in tokens])
    except ValueError as exc:
        raise ConfigError(f"capabilities {path}: {exc}") from exc


def cmd_flow(design_file: str, capabilities_file: str) -> None:
    """Solve and print one operating point for a saved design."""
    supply, arch = _read_design(design_file)
    caps = np.sort(_read_capabilities(capabilities_file))
    try:
        sol = optimal_flow(caps, arch)
    except ParameterError as exc:  # the file's capabilities, the one input not checked yet
        raise ConfigError(f"capabilities {capabilities_file}: {exc}") from exc
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
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("hippp").setLevel(levels.get(level_name, logging.WARNING))


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
    return cfg._replace(design=cfg.design._replace(**design), **updates)


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "flow":
            cmd_flow(args.design_file, args.capabilities_file)
        else:
            if args.command == "design" and args.threads != 1:
                raise ConfigError("--threads: hippp design runs in one process and takes only --threads 1")
            with _key("--threads"):
                whole(args.threads, "threads", 1)
            cfg = _apply_overrides(load_config(args.config), args)
            out_dir = args.out if args.out is not None else cfg.directory
            if args.command == "design":
                cmd_design(cfg, out_dir)
            else:
                cmd_sweep(cfg, out_dir, workers=args.threads)
        sys.stdout.flush()  # a reader that closed early fails the flush here, not at exit
        return 0
    except BrokenPipeError:
        # what is left of standard output goes to devnull, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (EnumerationCapError, InternalCheckError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except HipppError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
