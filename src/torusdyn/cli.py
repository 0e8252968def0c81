"""Experiment runner: every library operation as a reproducible subcommand.

Subcommands
-----------
classify   spectral family, stretch data, and growth/breaking estimates
diameters  image-diameter formula vs brute force, CSV (n,formula,bruteforce,rel_err)
localize   randomized kernel-vanishing or orbit-tracking check, JSON report
egorov     continuous-vs-lattice observable defect sweep, CSV (j,N,defect)
entropy    lattice/classical entropy production, CSV (n,N,S_cs,S_ks,gap,rate) + manifest

Configuration comes from flags, optionally backed by a plain-text config
file of `key = value` lines (`--config FILE`); flags win over the file.
Stochastic subcommands require an explicit seed.  Every output embeds the
fully resolved configuration, so a run is reproducible from its own file.
The per-size sweeps of `egorov` and `entropy --mode components` run in
threads when TORUSDYN_THREADS is set above 1; outputs are assembled in
sorted order after the join and are byte-identical at any thread count.
Compare mode runs its sizes in order whatever the setting.

Exit codes: 0 success, 2 validation error (including an output path that
cannot be written, which leaves no output file, and a request whose result
overflows a float or an int64 lattice step), 3 capacity or memory exceeded.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .discretize import (
    Observable,
    check_dynamical_localization,
    check_orbit_shadowing,
    discretize_aw,
    egorov_defect,
)
from .entropy import (
    Partition,
    compare_entropy_production,
    cs_entropies,
    partition_bands_x2,
    partition_halves_x1,
    partition_halves_x2,
    partition_quadrants,
    snap_partition,
)
from .lattice import DEFAULT_CAPACITY, CapacityExceededError, LatticeConfig
from .maps import (
    ToralMatrix,
    _check_form_factor,
    breaking_time,
    classify,
    diameter_bruteforce,
    diameter_formula,
    scaling_function,
)
from .rectangles import TorusRectangle

__all__ = ["main", "build_parser"]

SCHEMA_JSON = "torusdyn.run.v1"
SCHEMA_CSV = "torusdyn.csv.v1"
THREADS_ENV = "TORUSDYN_THREADS"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3


# ---------------------------------------------------------------------------
# Value parsers (shared between config-file strings and flag tokens)
# ---------------------------------------------------------------------------


def _split_tokens(value) -> list[str]:
    if isinstance(value, (list, tuple)):
        parts: list[str] = []
        for v in value:
            parts.extend(_split_tokens(v))
        return parts
    return [t for t in str(value).replace(",", " ").split() if t]


def parse_matrix(value) -> tuple[int, int, int, int]:
    tokens = _split_tokens(value)
    if len(tokens) != 4:
        raise ValueError(f"matrix needs exactly 4 integers, got {tokens}")
    return tuple(int(t) for t in tokens)  # type: ignore[return-value]


def parse_int_list(value) -> tuple[int, ...]:
    tokens = _split_tokens(value)
    if not tokens:
        raise ValueError("expected at least one integer")
    return tuple(int(t) for t in tokens)


def parse_finite_float(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_rects(text: str) -> tuple[TorusRectangle, ...]:
    """Rectangles '<xs>,<xspan>,<ys>,<yspan>[;...]' with rational coordinates like 1/3."""
    rects = []
    for chunk in text.split(";"):
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 4:
            raise ValueError(
                f"rectangle needs 4 rational values (x_start,x_span,y_start,y_span), got {chunk!r}"
            )
        rects.append(TorusRectangle(*(Fraction(p) for p in parts)))
    return tuple(rects)


def parse_partition(text: str) -> Partition:
    """Named preset or literal rectangles.

    Presets: quadrants, halves (= halves-x1), halves-x1, halves-x2,
    bands-x2:<count>.  Literal: 'rects:<xs>,<xspan>,<ys>,<yspan>[;...]'
    with rational coordinates like 1/3.
    """
    text = text.strip()
    if text in ("quadrants",):
        return partition_quadrants()
    if text in ("halves", "halves-x1"):
        return partition_halves_x1()
    if text == "halves-x2":
        return partition_halves_x2()
    if text.startswith("bands-x2:"):
        return partition_bands_x2(int(text.split(":", 1)[1]))
    if text.startswith("rects:"):
        return Partition(_parse_rects(text[len("rects:"):]), name=text)
    raise ValueError(f"unknown partition spec {text!r}")


def parse_observable(text: str) -> Observable:
    """Named preset or 'indicator:<rects>' with the partition rect syntax."""
    text = text.strip()
    presets: dict[str, Observable] = {
        "sin-x1": Observable.from_function(
            lambda x1, x2: np.sin(2 * np.pi * x1), 1.0, "sin-x1"
        ),
        "sin-x2": Observable.from_function(
            lambda x1, x2: np.sin(2 * np.pi * x2), 1.0, "sin-x2"
        ),
        "cos-x1": Observable.from_function(
            lambda x1, x2: np.cos(2 * np.pi * x1), 1.0, "cos-x1"
        ),
        "cos-x2": Observable.from_function(
            lambda x1, x2: np.cos(2 * np.pi * x2), 1.0, "cos-x2"
        ),
        "sin-sum": Observable.from_function(
            lambda x1, x2: np.sin(2 * np.pi * (x1 + x2)), 1.0, "sin-sum"
        ),
    }
    if text in presets:
        return presets[text]
    if text.startswith("indicator:"):
        return Observable.indicator(_parse_rects(text[len("indicator:"):]), name=text)
    raise ValueError(
        f"unknown observable {text!r}; presets: {', '.join(sorted(presets))}, indicator:<rects>"
    )


# ---------------------------------------------------------------------------
# Option table: one declaration drives the flag, the config key, and merging
# ---------------------------------------------------------------------------


class Opt:
    def __init__(
        self,
        name: str,
        parse: Callable,
        required: bool = False,
        default=None,
        help: str = "",
        nargs: Optional[object] = None,
        flag_type: Optional[Callable] = None,
        is_flag: bool = False,
        choices: Optional[tuple[str, ...]] = None,
        check: Optional[Callable] = None,
    ) -> None:
        self.name = name
        self.dest = name.replace("-", "_")
        self.parse = parse
        self.required = required
        self.default = default
        self.help = help
        self.nargs = nargs
        self.flag_type = flag_type
        self.is_flag = is_flag
        self.choices = choices
        self.check = check

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        kwargs: dict = {"dest": self.dest, "default": None, "help": self.help}
        if self.is_flag:
            kwargs.update(action="store_const", const=True)
        else:
            if self.nargs is not None:
                kwargs["nargs"] = self.nargs
            if self.flag_type is not None:
                kwargs["type"] = self.flag_type
            if self.choices is not None:
                kwargs["choices"] = self.choices
        parser.add_argument(f"--{self.name}", **kwargs)


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("_", "-")] = value.strip()
    return values


def _resolve_options(
    parser: argparse.ArgumentParser, ns: argparse.Namespace, opts: list[Opt]
) -> argparse.Namespace:
    """Merge config file values under flags, apply defaults, check required."""
    config: dict[str, str] = {}
    if getattr(ns, "config", None):
        try:
            config = _read_config_file(ns.config)
        except OSError as exc:
            parser.error(f"cannot read config file: {exc}")
        except ValueError as exc:
            parser.error(str(exc))
    known = {o.name for o in opts}
    for key in config:
        if key not in known:
            parser.error(f"unknown config key {key!r}; known: {', '.join(sorted(known))}")
    for opt in opts:
        value = getattr(ns, opt.dest, None)
        if value is None and opt.name in config:
            try:
                value = opt.parse(config[opt.name])
            except (ValueError, ZeroDivisionError) as exc:
                parser.error(f"config key {opt.name!r}: {exc}")
        elif value is not None and not opt.is_flag:
            try:
                value = opt.parse(value)
            except (ValueError, ZeroDivisionError) as exc:
                parser.error(f"--{opt.name}: {exc}")
        if value is None:
            if opt.required:
                parser.error(f"missing required option --{opt.name} (or config key)")
            value = opt.default
        if opt.choices is not None and value is not None and value not in opt.choices:
            parser.error(
                f"--{opt.name}: invalid choice {value!r} (choose from {', '.join(opt.choices)})"
            )
        setattr(ns, opt.dest, value)
    return ns


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ValueError(f"{THREADS_ENV} must be >= 1, got {n}")
    return n


def _run_sweep(tasks: list, worker: Callable) -> list:
    """Run independent tasks, possibly in threads; results in task order."""
    threads = _thread_count()
    if threads == 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, tasks))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _config_echo(ns: argparse.Namespace, opts: list[Opt]) -> dict:
    echo = {}
    for opt in opts:
        value = getattr(ns, opt.dest)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, (Partition, Observable)):
            value = value.name
        echo[opt.name] = value
    return echo


def _json_text(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _csv_text(command: str, config: dict, columns: list[str], rows: list[tuple]) -> str:
    lines = [f"# schema={SCHEMA_CSV}", f"# command={command}"]
    for key in sorted(config):
        value = config[key]
        if isinstance(value, list):
            value = " ".join(str(v) for v in value)
        lines.append(f"# {key}={value}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _check_output_path(path: Optional[str]) -> None:
    """Refuse, before any work, an output path in a missing directory or naming one.

    Raises `FileNotFoundError` or `IsADirectoryError` with the message that
    `open` gives; other write failures surface in `_write_outputs`.
    """
    if not path:
        return
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _write_outputs(files: list[tuple[Optional[str], str]]) -> None:
    """Write each (path, text) in turn, to stdout where the path is None or empty.

    When a file cannot be written, the files this call opened are removed
    before the OSError propagates, so a failed run leaves no output behind.
    """
    opened: list[str] = []
    try:
        for path, text in files:
            if not path:
                sys.stdout.write(text)
                continue
            with open(path, "w", encoding="utf-8") as fh:
                opened.append(path)
                fh.write(text)
    except OSError:
        for path in opened:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

_CLASSIFY_OPTS = [
    Opt("matrix", parse_matrix, required=True, nargs=4, flag_type=int,
        help="four integers t11 t12 t21 t22, row-major"),
    Opt("size", int, flag_type=int,
        help="lattice size; with gamma, also reports the breaking-time estimate"),
    Opt("gamma", parse_finite_float, default=2.0, flag_type=float, check=_check_form_factor,
        help="form factor for the breaking-time estimate (default 2.0)"),
    Opt("steps", int, default=0, flag_type=int,
        help="also report growth scale and diameter at this step count"),
    Opt("output", str, check=_check_output_path,
        help="write the JSON record here instead of stdout"),
]


def cmd_classify(ns: argparse.Namespace, opts: list[Opt]) -> int:
    T = ToralMatrix(*ns.matrix)
    data = classify(T)
    record: dict = {
        "matrix": list(T.entries),
        "determinant": T.det,
        "trace": T.trace,
        "semitrace": str(data.semitrace),
        "family": data.family.value,
        "eta": data.eta,
        "xi": data.xi,
        "lambda": data.lam,
        "beta": data.beta,
        "sin_beta": data.sin_beta,
        "shear": data.shear,
        "phi": data.phi,
        "period": data.period,
    }
    if ns.steps < 0:
        raise ValueError(f"step count must be >= 0, got {ns.steps}")
    if ns.steps:
        record["growth_scale"] = scaling_function(data, ns.steps)
        record["diameter"] = diameter_formula(data, ns.steps)
        record["steps"] = ns.steps
    if ns.size is not None:
        record["size"] = ns.size
        record["gamma"] = ns.gamma
        record["breaking_time"] = breaking_time(data, ns.size, ns.gamma)
    lines = [f"matrix        {T}"]
    for key in (
        "determinant", "trace", "semitrace", "family", "eta", "xi", "lambda",
        "beta", "sin_beta", "shear", "phi", "period",
    ):
        value = record[key]
        if value is not None:
            lines.append(f"{key:<13} {value}")
    if "growth_scale" in record:
        lines.append(f"growth_scale({ns.steps})  {record['growth_scale']}")
        lines.append(f"diameter({ns.steps})      {record['diameter']}")
    if "breaking_time" in record:
        lines.append(
            f"breaking_time(size={ns.size}, gamma={ns.gamma})  {record['breaking_time']}"
        )
    text = "\n".join(lines) + "\n"
    document = _json_text({
        "schema": SCHEMA_JSON,
        "command": "classify",
        "config": _config_echo(ns, opts),
        "results": record,
    })
    if ns.output:
        _write_outputs([(ns.output, document), (None, text)])
    else:
        _write_outputs([(None, text + "\n" + document)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# diameters
# ---------------------------------------------------------------------------

_DIAMETERS_OPTS = [
    Opt("matrix", parse_matrix, required=True, nargs=4, flag_type=int,
        help="four integers t11 t12 t21 t22"),
    Opt("steps-max", int, default=12, flag_type=int,
        help="emit rows for n = 0..steps-max (default 12)"),
    Opt("samples", int, default=4096, flag_type=int,
        help="angular sample count for the brute-force diameter (default 4096)"),
    Opt("output", str, check=_check_output_path,
        help="CSV output path (stdout when omitted)"),
]


def cmd_diameters(ns: argparse.Namespace, opts: list[Opt]) -> int:
    T = ToralMatrix(*ns.matrix)
    data = classify(T)
    if ns.steps_max < 0:
        raise ValueError(f"steps-max must be >= 0, got {ns.steps_max}")
    rows = []
    for n in range(ns.steps_max + 1):
        formula = diameter_formula(data, n)
        brute = diameter_bruteforce(T, n, ns.samples)
        rows.append((n, formula, brute, abs(formula - brute) / formula))
    config = _config_echo(ns, opts)
    columns = ["n", "formula", "bruteforce", "rel_err"]
    _write_outputs([(ns.output, _csv_text("diameters", config, columns, rows))])
    return EXIT_OK


# ---------------------------------------------------------------------------
# localize
# ---------------------------------------------------------------------------

_LOCALIZE_OPTS = [
    Opt("matrix", parse_matrix, required=True, nargs=4, flag_type=int,
        help="four integers t11 t12 t21 t22"),
    Opt("size", int, required=True, flag_type=int, help="lattice size N"),
    Opt("steps", int, required=True, flag_type=int, help="step count n"),
    Opt("check", str, default="localization", choices=("localization", "shadowing"),
        help="which guarantee to test (default localization)"),
    Opt("gamma", parse_finite_float, default=2.0, flag_type=float, check=_check_form_factor,
        help="form factor recorded alongside the localization check (default 2.0)"),
    Opt("d0", parse_finite_float, default=0.1, flag_type=float,
        help="separation distance for the localization check (default 0.1)"),
    Opt("trials", int, default=100000, flag_type=int,
        help="random pairs/orbits to sample (default 100000)"),
    Opt("seed", int, required=True, flag_type=int, help="RNG seed (mandatory)"),
    Opt("output", str, check=_check_output_path,
        help="write the JSON report here instead of stdout"),
]


def cmd_localize(ns: argparse.Namespace, opts: list[Opt]) -> int:
    T = ToralMatrix(*ns.matrix)
    cfg = LatticeConfig(ns.size)
    if ns.check == "localization":
        report = check_dynamical_localization(
            T, cfg, ns.steps, ns.gamma, ns.d0, ns.trials, ns.seed
        )
    else:
        report = check_orbit_shadowing(T, cfg, ns.steps, ns.trials, ns.seed)
    document = {
        "schema": SCHEMA_JSON,
        "command": "localize",
        "config": _config_echo(ns, opts),
        "results": report.as_dict(),
    }
    _write_outputs([(ns.output, _json_text(document))])
    return EXIT_OK


# ---------------------------------------------------------------------------
# egorov
# ---------------------------------------------------------------------------

_EGOROV_OPTS = [
    Opt("matrix", parse_matrix, required=True, nargs=4, flag_type=int,
        help="four integers t11 t12 t21 t22"),
    Opt("sizes", parse_int_list, required=True, nargs="+",
        help="lattice sizes to sweep"),
    Opt("steps-max", int, required=True, flag_type=int,
        help="emit defect rows for j = 0..steps-max"),
    Opt("observable", parse_observable, default=parse_observable("sin-x1"),
        help="observable preset (default sin-x1) or indicator:<rects>"),
    Opt("grid-factor", int, default=2, flag_type=int,
        help="quadrature mesh has grid-factor * N points per axis (default 2)"),
    Opt("quadrature", int, default=4, flag_type=int,
        help="cell-average sub-grid resolution (default 4)"),
    Opt("output", str, check=_check_output_path,
        help="CSV output path (stdout when omitted)"),
]


def cmd_egorov(ns: argparse.Namespace, opts: list[Opt]) -> int:
    T = ToralMatrix(*ns.matrix)
    if ns.steps_max < 0:
        raise ValueError(f"steps-max must be >= 0, got {ns.steps_max}")
    if ns.grid_factor < 1:
        raise ValueError(f"grid-factor must be >= 1, got {ns.grid_factor}")
    f = ns.observable

    def sweep(size: int) -> list[tuple[int, int, float]]:
        cfg = LatticeConfig(size)
        table = discretize_aw(f, cfg, ns.quadrature)
        grid = ns.grid_factor * size
        return [
            (j, size, egorov_defect(T, cfg, f, j, grid, table=table))
            for j in range(ns.steps_max + 1)
        ]

    per_size = _run_sweep(sorted(set(ns.sizes)), sweep)
    rows = [row for chunk in per_size for row in chunk]
    config = _config_echo(ns, opts)
    _write_outputs([(ns.output, _csv_text("egorov", config, ["j", "N", "defect"], rows))])
    return EXIT_OK


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

_ENTROPY_OPTS = [
    Opt("mode", str, default="compare", choices=("compare", "components"),
        help="compare lattice vs classical production, or split lattice entropy"),
    Opt("matrix", parse_matrix, nargs=4, flag_type=int,
        help="four integers t11 t12 t21 t22 (omit with --identity-dynamics)"),
    Opt("identity-dynamics", parse_bool, is_flag=True, default=False,
        help="use frozen (identity) dynamics instead of a matrix"),
    Opt("partition", parse_partition, default=parse_partition("quadrants"),
        help="partition preset or rects:... (default quadrants)"),
    Opt("sizes", parse_int_list, required=True, nargs="+",
        help="lattice sizes to sweep"),
    Opt("n-max", int, required=True, flag_type=int, help="maximum word length"),
    Opt("samples", int, default=100000, flag_type=int,
        help="classical Monte Carlo sample count (default 100000)"),
    Opt("seed", int, flag_type=int,
        help="RNG seed (mandatory for mode=compare)"),
    Opt("break-increment-fraction", parse_finite_float, default=0.5, flag_type=float,
        help="hyperbolic stall detector: increment below this fraction of the "
             "classical rate (default 0.5)"),
    Opt("abs-gap-threshold", parse_finite_float, default=0.05, flag_type=float,
        help="non-hyperbolic breaking threshold on |S_ks - S_cs| (default 0.05)"),
    Opt("capacity", int, default=DEFAULT_CAPACITY, flag_type=int,
        help=f"largest allowed lattice point count (default {DEFAULT_CAPACITY})"),
    Opt("output", str, required=True, check=_check_output_path, help="CSV output path"),
    Opt("manifest", str, check=_check_output_path,
        help="JSON manifest path (default: output path + '.manifest.json')"),
]


def cmd_entropy(ns: argparse.Namespace, opts: list[Opt]) -> int:
    if ns.identity_dynamics and ns.matrix is not None:
        raise ValueError("give either --matrix or --identity-dynamics, not both")
    if not ns.identity_dynamics and ns.matrix is None:
        raise ValueError("one of --matrix or --identity-dynamics is required")
    T = None if ns.identity_dynamics else ToralMatrix(*ns.matrix)
    if ns.n_max < 1:
        raise ValueError(f"n-max must be >= 1, got {ns.n_max}")
    partition = ns.partition
    config = _config_echo(ns, opts)
    manifest_path = ns.manifest or ns.output + ".manifest.json"
    if ns.mode == "compare":
        if ns.seed is None:
            raise ValueError("--seed is mandatory for mode=compare")
        result = compare_entropy_production(
            T,
            partition,
            ns.n_max,
            ns.sizes,
            ns.samples,
            ns.seed,
            break_increment_fraction=ns.break_increment_fraction,
            abs_gap_threshold=ns.abs_gap_threshold,
            capacity=ns.capacity,
        )
        rows = []
        for i, size in enumerate(result.sizes):
            for n in range(1, ns.n_max + 1):
                s_cs = result.s_cs[i, n]
                s_ks = result.s_ks[i, n]
                rows.append((n, size, s_cs, s_ks, s_ks - s_cs, s_cs / n))
        rows.sort(key=lambda r: (r[1], r[0]))
        csv = _csv_text("entropy", config, ["n", "N", "S_cs", "S_ks", "gap", "rate"], rows)
        document = {
            "schema": SCHEMA_JSON,
            "command": "entropy",
            "config": config,
            "results": result.as_dict(),
        }
        _write_outputs([(ns.output, csv), (manifest_path, _json_text(document))])
        return EXIT_OK
    # mode=components: deterministic lattice-side decomposition per (N, n)
    def sweep(size: int) -> list[tuple]:
        cfg = LatticeConfig(size)
        snapped, shift = snap_partition(partition, size)
        totals = cs_entropies(T, cfg, snapped, ns.n_max, capacity=ns.capacity)
        s1 = totals[0]
        return [
            (n, size, total, s1, total - s1, (total - s1) / (n - 1) if n > 1 else 0.0, shift)
            for n, total in enumerate(totals, 1)
        ]

    per_size = _run_sweep(sorted(set(ns.sizes)), sweep)
    rows = [row for chunk in per_size for row in chunk]
    csv = _csv_text(
        "entropy", config,
        ["n", "N", "total", "measurement", "dynamical", "per_step_dynamical", "snap_shift"],
        rows,
    )
    document = {
        "schema": SCHEMA_JSON,
        "command": "entropy",
        "config": config,
        "results": {"mode": "components", "rows": [list(r) for r in rows]},
    }
    _write_outputs([(ns.output, csv), (manifest_path, _json_text(document))])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly and entry point
# ---------------------------------------------------------------------------

_SUBCOMMANDS: dict[str, tuple[Callable, list[Opt], str]] = {
    "classify": (cmd_classify, _CLASSIFY_OPTS,
                 "Spectral family and growth data for an integer torus matrix."),
    "diameters": (cmd_diameters, _DIAMETERS_OPTS,
                  "CSV columns: n, formula, bruteforce, rel_err."),
    "localize": (cmd_localize, _LOCALIZE_OPTS,
                 "JSON report of the kernel-vanishing or orbit-tracking check."),
    "egorov": (cmd_egorov, _EGOROV_OPTS,
               "CSV columns: j, N, defect (L2 continuous-vs-lattice gap)."),
    "entropy": (cmd_entropy, _ENTROPY_OPTS,
                "CSV columns (compare): n, N, S_cs, S_ks, gap, rate; plus a JSON "
                "manifest with increments, breaking times, and the log-size fit. "
                "CSV columns (components): n, N, total, measurement, dynamical, "
                "per_step_dynamical, snap_shift."),
}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser for every subcommand, built once per process.

    Every call returns the same cached parser, so treat it as read-only:
    parse with it and report errors through it, but add or change nothing.
    """
    parser = argparse.ArgumentParser(
        prog="torusdyn",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, (func, cmd_opts, description) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(
            name,
            description=description,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sub.add_argument("--config", default=None,
                         help="key=value config file; flags override it")
        for opt in cmd_opts:
            opt.add_to(sub)
        sub.set_defaults(_func=func, _opts=cmd_opts, _sub=sub)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if not getattr(ns, "subcommand", None):
        parser.print_help()
        return EXIT_VALIDATION
    sub: argparse.ArgumentParser = ns._sub
    _resolve_options(sub, ns, ns._opts)
    try:
        for opt in ns._opts:
            if opt.check is not None:  # whether or not the run uses the value
                opt.check(getattr(ns, opt.dest))
        return ns._func(ns, ns._opts)
    except CapacityExceededError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError as exc:  # numpy raises a private subclass; name the public one
        print(f"MemoryError: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OverflowError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
