"""Command-line frontend: curves, thresholds, simulation, attack demo.

Subcommands
-----------
curve        CSV/JSON of the Bell-value curves over the source angle.
rate-curve   CSV/JSON of the secure normalized rate versus depolarization.
thresholds   JSON of the efficiency thresholds and noise tolerances.
simulate     Run a Monte-Carlo session and emit its result as JSON.
attack-demo  CSV/JSON comparing clean and attacked Bell values.

Angles cross the CLI boundary in degrees and are converted to radians at the
edge. Each subcommand has only the flags it reads. Every run writes a
manifest next to its primary output recording those parameters and listing
all emitted files with SHA-256 checksums, so figure data can be diffed and
pinned. Exit codes: 0 success, 2 configuration error, 3 a simulation ended
with too few conclusive events to estimate anything (its JSON is still
written).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, NamedTuple, Optional

import numpy as np

from .bell import _setting
from .channels import ChannelModel
from .rates import efficiency_threshold, max_depolarization, optimal_theta, pm_reference_rate
from .session import SessionConfig, born_ch, run_session
from .states import ProtocolAngle, _is_real

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSUFFICIENT = 3


@dataclass
class RunManifest:
    """Record of one CLI invocation: inputs and checksummed outputs."""

    subcommand: str
    parameters: dict
    seed: Optional[int]
    outputs: List[dict] = field(default_factory=list)

    def add_output(self, path: str, sha256: str) -> None:
        self.outputs.append({"path": str(path), "sha256": sha256})

    def to_json_dict(self) -> dict:
        return dict(vars(self))

    def write(self, primary_output: str) -> str:
        path = f"{primary_output}.manifest.json"
        _write_json(path, self.to_json_dict())
        return path


def _write_text(path: str, blocks: Iterable[str]) -> str:
    """Write the UTF-8 of each text block in turn over ``path`` and return the SHA-256 of all of it.

    Every output goes through here, and nothing is read back. An existing file is overwritten in place and then,
    if it was longer, cut to the written length, which on ext4 measured about a fifth of the cost of truncating it
    to zero first (likely because ext4 starts the writeback of a file rewritten after such a truncate when it is
    closed). A FIFO or a device such as /dev/null takes the bytes and is never truncated. Nothing is fsynced; a run
    killed mid-write leaves the new bytes in front of the old file's tail, and a digest that matches no manifest.
    """
    digest, size = hashlib.sha256(), 0
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        for block in blocks:
            data = block.encode("utf-8")
            digest.update(data)
            fh.write(data)
            size += len(data)
        fh.flush()
        if stat.S_ISREG((found := os.fstat(fh.fileno())).st_mode) and found.st_size > size:
            os.ftruncate(fh.fileno(), size)
    return digest.hexdigest()


class _Rows(NamedTuple):
    """The JSON document ``{"rows": [...]}`` of a table: one object per row, keyed by ``header``, given in blocks."""

    header: List[str]
    blocks: Iterable[list]


def _json_number(value) -> str:
    """A number as ``json.dumps`` writes a float: its repr, or NaN, Infinity and -Infinity."""
    value = float(value)
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _json_blocks(obj) -> Iterator[str]:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` in blocks: a ``_Rows`` document one row block at a time."""
    if not isinstance(obj, _Rows):
        yield json.dumps(obj, indent=2, sort_keys=True) + "\n"
        return
    order = sorted(range(len(obj.header)), key=obj.header.__getitem__)
    row = "    {\n%s\n    }" % ",\n".join(
        f"      {json.dumps(obj.header[k])}: ".replace("%", "%%") + "%s" for k in order)
    first = True
    for block in obj.blocks:
        if block:
            text = ",\n".join(row % tuple(_json_number(values[k]) for k in order) for values in block)
            yield ('{\n  "rows": [\n' if first else ",\n") + text
            first = False
    yield '{\n  "rows": []\n}\n' if first else "\n  ]\n}\n"


def _write_json(path: str, obj) -> str:
    return _write_text(path, _json_blocks(obj))


def _write_csv(path: str, header: List[str], blocks: Iterable[list]) -> str:
    """A header line, then one line per row of each block, one ``%`` a block: every value as ``%.12g`` of its float."""
    line = ",".join(["%.12g"] * len(header)) + "\n"
    return _write_text(path, itertools.chain([",".join(header) + "\n"], (
        (line * len(block)) % tuple(itertools.chain.from_iterable(block)) for block in blocks)))


def _check_writable(*paths: str) -> None:
    """Raise up front if an output, or the manifest beside ``paths[0]``, could not be written or would overwrite."""
    outputs = (*paths, f"{paths[0]}.manifest.json")
    names, writable = set(), []
    for path in outputs:
        try:
            found = os.stat(path)
        except OSError:  # a new file, in a directory that must take it
            names.add(os.path.realpath(path))
            directory = os.path.dirname(os.path.abspath(path))
            writable.append(os.path.isdir(directory) and os.access(directory, os.W_OK))
        else:  # an existing file, named by its inode: one call, where resolving its path takes one per component
            names.add((found.st_dev, found.st_ino))
            writable.append(not stat.S_ISDIR(found.st_mode) and os.access(path, os.W_OK))
    if len(names) < len(outputs):
        raise ValueError(f"outputs must not share a path: {', '.join(paths)}")
    for path, ok in zip(outputs, writable):
        if not ok:
            raise OSError(f"cannot write {path!r}: not a writable file path")


def _extra_outputs(args) -> tuple:
    """The outputs besides ``--output`` and its manifest: simulate's ``--table-csv``, when given."""
    table_csv = getattr(args, "table_csv", None)
    return () if table_csv is None else (table_csv,)


def _finish(args, digests: List[str], params=None, seed=None) -> None:
    """Write the manifest of the outputs with their ``digests``; ``params`` defaults to every flag but ``--output``."""
    if params is None:
        params = {k: v for k, v in vars(args).items() if k not in ("subcommand", "output")}
    manifest = RunManifest(args.subcommand, params, seed)
    for path, digest in zip((args.output, *_extra_outputs(args)), digests, strict=True):
        manifest.add_output(path, digest)
    manifest.write(args.output)


def _emit_table(args, header: List[str], blocks: Iterable[list]) -> int:
    """Write the table whose rows come in ``blocks`` in ``--format``, then its manifest."""
    if args.format == "csv":
        digest = _write_csv(args.output, header, blocks)
    else:
        digest = _write_json(args.output, _Rows(header, blocks))
    _finish(args, [digest])
    return EXIT_OK


# largest grid any subcommand builds, checked before the grid is allocated
_MAX_GRID_POINTS = 1_000_000
# rows per block of a streamed table. In attack-demo each array temporary stays under 75 KB, and at 200 000
# points the peak RSS matched a per-angle loop's; 2^11-angle blocks added 1.5 MB
_BLOCK = 2 ** 8


def _theta_grid_degrees(args) -> Iterator[np.ndarray]:
    """The checked degree grid of ``--points`` angles, in blocks of ``_BLOCK``; see ``_grid_blocks``."""
    if args.points < 2:
        raise ValueError("need at least 2 grid points")
    if args.points > _MAX_GRID_POINTS:
        raise ValueError(f"the angle grid may hold at most {_MAX_GRID_POINTS} points, got {args.points}")
    # the rows are computed in radians, where a subnormal number of degrees rounds to 0
    if not (0.0 < math.radians(args.theta_min_deg) and args.theta_min_deg < args.theta_max_deg < 90.0):
        raise ValueError("degree grid must satisfy 0 < min < max < 90")
    return _grid_blocks(args.theta_min_deg, args.theta_max_deg, args.points)


def _grid_blocks(start: float, stop: float, num: int) -> Iterator[np.ndarray]:
    """``np.linspace(start, stop, num)`` bit for bit, in consecutive blocks of ``_BLOCK`` values.

    Value i is i * step + start with step = (stop - start) / (num - 1), as
    numpy forms it, and the last value is ``stop``; where the step underflows
    to 0, numpy divides by num - 1 first and then multiplies by the difference.
    """
    div = num - 1
    delta = stop - start
    step = delta / div
    for first in range(0, num, _BLOCK):
        i = np.arange(first, min(first + _BLOCK, num), dtype=float)
        block = (i / div * delta if step == 0.0 else i * step) + start
        if first + len(block) == num:
            block[-1] = stop
        yield block


def _curve_rows(degrees: np.ndarray) -> List[list]:
    """curve's rows at ``degrees``: both clean curves of ``bell._setting``, and the tuned receiver angle."""
    theta = np.radians(degrees)
    bob_angle, _, s_max, _ = _setting(theta, "ch_max")
    return np.column_stack([degrees, _setting(theta, "fixed_settings")[2], s_max, np.degrees(bob_angle)]).tolist()


def cmd_curve(args) -> int:
    """Bell value and best-achievable Bell value per source angle."""
    blocks = map(_curve_rows, _theta_grid_degrees(args))
    return _emit_table(args, ["theta_deg", "s_ch", "s_ch_max", "bob_angle_deg"], blocks)


def cmd_rate_curve(args) -> int:
    """Secure normalized rate at the optimal angle, versus depolarization."""
    # every check runs before the first solve
    if not (math.isfinite(args.p_max) and math.isfinite(args.p_step)):
        raise ValueError("p-max and p-step must be finite")
    if args.p_step <= 0 or args.p_max <= 0:
        raise ValueError("p-max and p-step must be positive")
    if args.p_max > 1.0:
        raise ValueError(f"p-max is a depolarization probability and cannot exceed 1, got {args.p_max!r}")
    ratio = args.p_max / args.p_step  # round(ratio) + 1 points; inf for a tiny step, so check before rounding
    if ratio >= _MAX_GRID_POINTS - 0.5:
        raise ValueError(f"the p grid may hold at most {_MAX_GRID_POINTS} points, got {ratio + 1:.6g}")
    n_steps = int(round(ratio))
    if abs(n_steps * args.p_step - args.p_max) > 1e-12 * args.p_max:
        raise ValueError("p-max must be an integer multiple of p-step")
    # one block, solved in full before the output is opened: a failed solve leaves no partial file, and at
    # about 0.1 ms a solve the rows' memory never matters
    rows = []
    for p in (np.arange(n_steps + 1) * args.p_step).tolist():
        theta_star, report = optimal_theta(p)
        rows.append([p, report.normalized_rate, math.degrees(theta_star), pm_reference_rate(p)])
    return _emit_table(args, ["p", "normalized_rate", "theta_star_deg", "pm_reference"], [rows])


def cmd_thresholds(args) -> int:
    """All headline thresholds in one JSON document."""
    payload = {
        "efficiency": {
            mode: efficiency_threshold(mode).to_json_dict()
            for mode in ("symmetric", "alice_perfect", "bob_perfect")
        },
        "max_depolarization": {
            strategy: max_depolarization(strategy).to_json_dict()
            for strategy in ("fixed_settings", "ch_max")
        },
    }
    _finish(args, [_write_json(args.output, payload)])
    return EXIT_OK


# simulate's parameters: each is a flag and a config-file key, with its kind
# (a type, or a tuple of choices) and its default (None: required)
_SIMULATE_PARAMS = {
    "theta_deg": (float, None),
    "rounds": (int, None),
    "test_fraction": (float, 0.25),
    "eta_a": (float, 1.0),
    "eta_b": (float, 1.0),
    "depol": (float, 0.0),
    "attack": (("none", "usd"), "none"),
    "abort_threshold": (float, 0.0),
    "seed": (int, 0),
}


def _check_config_value(key: str, value) -> None:
    """Reject a config-file value whose JSON type cannot mean what the flag means."""
    kind = _SIMULATE_PARAMS[key][0]
    if isinstance(kind, tuple):
        if not isinstance(value, str):
            raise ValueError(f"config key {key!r} must be a string, got {json.dumps(value)}")
        return
    if not _is_real(value):
        raise ValueError(f"config key {key!r} must be a number, got {json.dumps(value)}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"config key {key!r} must be an integer, got {json.dumps(value)}")
    try:
        kind(value)
    except OverflowError:
        raise ValueError(f"config key {key!r} is too large for a float") from None


def _merge_simulate_params(args) -> dict:
    # precedence: flag > config file > default
    merged = {key: default for key, (_, default) in _SIMULATE_PARAMS.items()}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_params = json.load(fh)
        if not isinstance(file_params, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_params) - set(merged)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_params.items():
            _check_config_value(key, value)
        merged.update(file_params)
    for key in merged:
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
    if merged["theta_deg"] is None:
        raise ValueError("theta-deg is required (flag or config file)")
    if merged["rounds"] is None:
        raise ValueError("rounds is required (flag or config file)")
    return merged


def cmd_simulate(args) -> int:
    """Run one seeded session and write its result JSON."""
    params = _merge_simulate_params(args)
    config = SessionConfig(
        angle=ProtocolAngle.from_degrees(params["theta_deg"]),
        n_rounds=params["rounds"],
        test_fraction=params["test_fraction"],
        channel=ChannelModel(eta_a=params["eta_a"], eta_b=params["eta_b"],
                             depol_p=params["depol"], attacker=params["attack"]),
        seed=params["seed"],
        abort_threshold=params["abort_threshold"],
    )
    result = run_session(config, workers=args.workers)
    digests = [_write_json(args.output, result.to_json_dict())]
    if args.table_csv is not None:
        rows = [[*cell, int(n)] for cell, n in np.ndenumerate(result.table.grids)]
        digests.append(_write_csv(args.table_csv,
                                  ["alice_setting", "bob_setting", "alice_outcome", "bob_outcome", "count"], [rows]))
    _finish(args, digests, {**params, "workers": args.workers}, config.seed)
    return EXIT_INSUFFICIENT if result.insufficient_statistics else EXIT_OK


_USD = ChannelModel(attacker="usd")


def _attack_rows(degrees: np.ndarray) -> List[list]:
    """attack-demo's rows at ``degrees``: the clean curve of ``bell._setting`` and the attacked ``born_ch``."""
    theta = np.radians(degrees)
    return np.column_stack([degrees, _setting(theta, "fixed_settings")[2], born_ch(theta, _USD)]).tolist()


def cmd_attack_demo(args) -> int:
    """Clean versus attacked Bell value across the angle range."""
    blocks = map(_attack_rows, _theta_grid_degrees(args))
    return _emit_table(args, ["theta_deg", "s_ch_clean", "s_ch_attacked"], blocks)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _add_common(sp, default_output: str, table: bool = True) -> None:
    """``--output``, and ``--format`` on the subcommands that emit a table."""
    sp.add_argument("--output", default=default_output, help="primary output path")
    if table:
        sp.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_theta_grid(sp) -> None:
    sp.add_argument("--points", type=int, default=89)
    sp.add_argument("--theta-min-deg", type=float, default=1.0)
    sp.add_argument("--theta-max-deg", type=float, default=89.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entb92",
        description="Entanglement-based B92: Bell curves, secure rates, and session simulation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("curve", help="Bell-value curves over the source angle")
    _add_common(sp, "curve.csv")
    _add_theta_grid(sp)

    sp = sub.add_parser("rate-curve", help="secure normalized rate versus depolarization")
    _add_common(sp, "rate_curve.csv")
    sp.add_argument("--p-max", type=float, default=0.04)
    sp.add_argument("--p-step", type=float, default=0.0005)

    sp = sub.add_parser("thresholds", help="efficiency thresholds and noise tolerances")
    _add_common(sp, "thresholds.json", table=False)

    sp = sub.add_parser("simulate", help="run one Monte-Carlo session")
    _add_common(sp, "session.json", table=False)
    sp.add_argument("--workers", type=_positive_int, default=1, help="worker threads; never changes results")
    sp.add_argument("--config", default=None, help="JSON file with flag values; flags override")
    for key, (kind, _) in _SIMULATE_PARAMS.items():
        sp.add_argument("--" + key.replace("_", "-"), default=None,
                        **({"choices": kind} if isinstance(kind, tuple) else {"type": kind}))
    sp.add_argument("--table-csv", default=None, help="also write the count table as CSV")

    sp = sub.add_parser("attack-demo", help="clean versus attacked Bell value")
    _add_common(sp, "attack_demo.csv")
    _add_theta_grid(sp)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on its first call: parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # looked up per call, so the module's current cmd_* runs
    handler = globals()["cmd_" + args.subcommand.replace("-", "_")]
    try:
        # no run may be lost to an output path that cannot be written, so every subcommand checks first
        _check_writable(args.output, *_extra_outputs(args))
        return handler(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        parser.exit(EXIT_CONFIG, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
