"""Workload definitions: seeded inputs, operations, correctness gates, metrics.

Each workload turns a seed into a list of inputs, groups its operations into
passes, and knows how to check one operation's output against the
mathematics (closed forms, tolerances of the acceptance criteria, the
golden rate curve, worker invariance, manifest checksums). The runner in
``run.py`` times the operations and the reference work around each of them;
the only clock read here times the sessions inside one sweep block.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import List, NamedTuple, Optional

from entb92 import cli, session
from entb92.bell import ch_with_loss
from entb92.channels import ChannelModel
from entb92.session import SessionConfig
from entb92.states import ProtocolAngle

# family-wise false-alarm probability of one two-sided 5-sigma test
_FIVE_SIGMA_P = 2.0 * statistics.NormalDist().cdf(-5.0)


def z_limit(n_checks: int) -> float:
    """|z| bound giving n_checks tests the false-alarm rate of one 5-sigma test.

    Bonferroni: 5.0 for a single check, a little more for many, so a run
    that checks thousands of short sessions is not failed by chance.
    """
    return statistics.NormalDist().inv_cdf(1.0 - _FIVE_SIGMA_P / (2.0 * max(n_checks, 1)))


def closed_form_ch(theta: float, eta_a: float, eta_b: float, p: float) -> float:
    """S_CH with detector losses and receiver-side depolarization.

    The map rho -> d rho + (1 - d) rho_A (x) I/2 with d = 1 - 4p/3 is affine,
    so S_CH mixes the lossy noiseless value with that of the product state,
    whose sender target marginal is sin^2(theta/2).
    """
    d = 1.0 - 4.0 * p / 3.0
    noise = eta_a * math.sin(theta / 2.0) ** 2 * (eta_b - 1.0) - eta_b / 2.0
    return d * ch_with_loss(theta, eta_a, eta_b) + (1.0 - d) * noise


def closed_form_qber(theta: float, p: float) -> float:
    """Error rate of the key rounds: same/(same + diff) at receiver angle theta."""
    d = 1.0 - 4.0 * p / 3.0
    same = 2.0 * p / 3.0
    diff = d * math.sin(theta) ** 2 + 2.0 * p / 3.0
    return same / (same + diff)


@dataclass
class Op:
    kind: str
    argv: Optional[List[str]] = None
    configs: List[SessionConfig] = field(default_factory=list)
    items: int = 0                      # rows or rounds the operation produces
    threads: int = 1                    # worker threads the operation runs on
    outputs: List[str] = field(default_factory=list)


class Sample(NamedTuple):
    """One timed operation that passed its gates."""

    index: int                          # the operation's number in the run
    items: int
    seconds: float
    ref: float                          # reference time around it, on as many threads


def per_ref(samples) -> float:
    """Items per reference time: the run's items per second times its mean reference time.

    The reference work is timed right before and after each operation, so a
    slow stretch of the shared host stretches both and the ratio stays (see
    reference.py). Totals over the run average the noise of both timings,
    and spread less across runs than the median of per-operation ratios.
    """
    return sum(s.items for s in samples) / sum(s.seconds for s in samples) * statistics.fmean(s.ref for s in samples)


def per_s(samples) -> float:
    """Items per wall-clock second over the run (follows the host's speed)."""
    return sum(s.items for s in samples) / sum(s.seconds for s in samples)


def call_cli(argv: List[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:           # argparse and config errors exit
        return exc.code if isinstance(exc.code, int) else 2


def check_manifest(primary: str) -> List[str]:
    errors = []
    with open(f"{primary}.manifest.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    listed = {entry["path"]: entry["sha256"] for entry in manifest["outputs"]}
    if primary not in listed:
        errors.append(f"manifest of {primary} does not list it")
    for path, digest in listed.items():
        if hashlib.sha256(Path(path).read_bytes()).hexdigest() != digest:
            errors.append(f"manifest checksum mismatch for {path}")
    return errors


def read_csv(path: str):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


class Workload:
    """Base: subclasses set ``name`` and fill ``passes`` in ``__init__``."""

    name = ""
    rounds_per_pass = 0

    def __init__(self, seed: int, root: Path, out_dir: Path, workers: int):
        self.rng = random.Random(seed)
        self.out = out_dir
        self.workers = workers
        self.passes: List[List[Op]] = []
        self.zscores: List[tuple] = []  # (op index, z, one_sided)

    def pass_ops(self, k: int) -> List[Op]:
        return self.passes[k % len(self.passes)]

    def warm_up(self) -> None:
        for op in self.passes[0]:
            self.execute(op)

    def execute(self, op: Op):
        return call_cli(op.argv)

    def check(self, index: int, op: Op, result) -> List[str]:
        raise NotImplementedError

    def metrics(self, samples: dict) -> tuple:
        """(gated metrics, named metrics) from the untraced per-kind samples."""
        raise NotImplementedError


class Analytic(Workload):
    """rate-curve calls alternating with attack-demo calls, thresholds amid them."""

    name = "analytic"

    def __init__(self, seed, root, out_dir, workers):
        super().__init__(seed, root, out_dir, workers)
        golden = root / "tests" / "fixtures" / "rate_curve_golden.csv"
        header, rows = read_csv(str(golden))
        if header != ["p", "normalized_rate", "theta_star_deg", "pm_reference"]:
            raise ValueError(f"unexpected golden header {header}")
        self.golden = rows
        # each rate-curve call solves p = 0 and one golden grid point; the
        # criterion-6 points 0.01, 0.02, 0.03 are always among them
        steps = [20, 40, 60] + self.rng.sample([k for k in range(1, 81) if k not in (20, 40, 60)], 9)
        self.rng.shuffle(steps)
        o = str(out_dir)
        ops = []
        for k, step in enumerate(steps):
            p = repr(step * 0.0005)
            ops.append(Op("rate_curve", ["rate-curve", "--p-max", p, "--p-step", p,
                                         "--output", f"{o}/rate_curve{k}.csv"], items=2))
            ops.append(Op("attack_demo", ["attack-demo", "--output", f"{o}/attack_demo{k}.csv"], items=89))
        # thresholds is a long stretch of the pass (a third to a half of it):
        # put it in the middle, so the throughput samples come from both ends
        ops.insert(len(ops) // 2, Op("thresholds", ["thresholds", "--output", f"{o}/thresholds.json"]))
        self.passes = [ops]

    def warm_up(self) -> None:
        call_cli(["attack-demo", "--points", "3", "--output", str(self.out / "warm.csv")])

    def check(self, index, op, code):
        if code != 0:
            return [f"{op.argv[0]} exited with {code}"]
        primary = op.argv[op.argv.index("--output") + 1]
        errors = check_manifest(primary)
        if op.kind == "thresholds":
            errors += self._check_thresholds(primary)
        elif op.kind == "rate_curve":
            errors += self._check_rate_curve(primary, op.items)
        else:
            errors += self._check_attack_demo(primary)
        return errors

    @staticmethod
    def _check_thresholds(path):
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        want = {  # acceptance criteria 4 (1e-3) and 5 (5e-4)
            ("efficiency", "symmetric"): (0.75, 1e-3),
            ("efficiency", "bob_perfect"): (2.0 / 3.0, 1e-3),
            ("efficiency", "alice_perfect"): (0.5, 1e-3),
            ("max_depolarization", "fixed_settings"): (0.0336, 5e-4),
            ("max_depolarization", "ch_max"): (0.0234, 5e-4),
        }
        return [f"threshold {group}/{key} = {data[group][key]['value']} not within {tol} of {value}"
                for (group, key), (value, tol) in want.items()
                if not abs(data[group][key]["value"] - value) <= tol]

    def _check_rate_curve(self, path, n_rows):
        header, rows = read_csv(path)
        if header != ["p", "normalized_rate", "theta_star_deg", "pm_reference"] or len(rows) != n_rows:
            return [f"rate-curve layout: {header}, {len(rows)} rows"]
        errors = []
        criterion_6 = {0.01: 61.56, 0.02: 62.65, 0.03: 63.57}
        for p, rate, theta_deg, pm in rows:
            match = [g for g in self.golden if abs(g[0] - p) <= 1e-12]
            if not match:
                errors.append(f"rate-curve p={p} not on the golden grid")
                continue
            _, g_rate, g_theta, g_pm = match[0]
            # golden-section resolution is ~2e-8 rad; allow 1e-6 rad and 1e-8 in the rate
            if abs(math.radians(theta_deg - g_theta)) > 1e-6 or abs(rate - g_rate) > 1e-8 \
                    or abs(pm - g_pm) > 1e-11:
                errors.append(f"rate-curve row p={p} differs from golden")
            for p6, want in criterion_6.items():
                if abs(p - p6) <= 1e-12 and not abs(theta_deg - want) <= 0.1:
                    errors.append(f"theta* at p={p6} is {theta_deg} deg, want {want} +- 0.1")
        return errors

    @staticmethod
    def _check_attack_demo(path):
        header, rows = read_csv(path)
        if header != ["theta_deg", "s_ch_clean", "s_ch_attacked"] or len(rows) != 89:
            return [f"attack-demo layout: {header}, {len(rows)} rows"]
        errors = []
        for theta_deg, clean, attacked in rows:
            c = math.cos(math.radians(theta_deg))
            if abs(clean - 0.5 * c * (1.0 - c)) > 1e-12:
                errors.append(f"attack-demo clean value off the closed form at {theta_deg} deg")
            if attacked > 1e-12:  # criterion 8: an intercepted state never violates
                errors.append(f"attack-demo attacked value {attacked} > 0 at {theta_deg} deg")
        return errors

    def metrics(self, samples):
        rows, attack = per_ref(samples["rate_curve"]), per_ref(samples["attack_demo"])
        thresholds = samples["thresholds"]
        named = {
            "rate_curve_rows_per_ref": (rows, "rows/ref"),
            "attack_demo_rows_per_ref": (attack, "rows/ref"),
            "thresholds_refs": (statistics.median(s.seconds / s.ref for s in thresholds), "ref"),
            "rate_curve_rows_per_s": (per_s(samples["rate_curve"]), "rows/s"),
            "attack_demo_rows_per_s": (per_s(samples["attack_demo"]), "rows/s"),
            "thresholds_s": (statistics.median(s.seconds for s in thresholds), "s"),
        }
        return {"work_per_ref": rows, "side_per_ref": attack}, named


def session_statistics(result: dict, attacked: bool):
    """Gate one session result; returns (errors, [(z, one_sided), ...]).

    Counts must sum to n_rounds. A clean session's S_CH and QBER are scored
    against the closed forms, and a noiseless one must show no error at all;
    an attacked session's S_CH is scored against the local bound 0.
    """
    config, table, est = result["config"], result["table"], result["s_ch_estimate"]
    errors, zs = [], []
    total = sum(sum(cells) for cells in table["pairs"].values())
    if total != config["n_rounds"]:
        errors.append(f"table sums to {total}, not n_rounds={config['n_rounds']}")
    if est is None:
        return errors + ["session had insufficient statistics"], zs
    if attacked:
        return errors, [(est["value"] / est["standard_error"], True)]
    theta, ch = config["theta"], config["channel"]
    want_s = closed_form_ch(theta, ch["eta_a"], ch["eta_b"], ch["depol_p"])
    zs.append(((est["value"] - want_s) / est["standard_error"], False))
    if ch["depol_p"] == 0.0:
        if result["qber"] != 0.0:
            errors.append(f"noiseless clean session has qber {result['qber']}")
    else:
        want_q = closed_form_qber(theta, ch["depol_p"])
        sigma_q = math.sqrt(want_q * (1.0 - want_q) / result["n_con"])
        zs.append(((result["qber"] - want_q) / sigma_q, False))
    return errors, zs


class LongSession(Workload):
    """simulate on long sessions, each config at 1 and at 2 workers."""

    name = "session-clean"
    attack = "none"
    rounds = 2_000_000
    n_configs = 64

    def __init__(self, seed, root, out_dir, workers):
        super().__init__(seed, root, out_dir, workers)
        o = str(out_dir)
        for _ in range(self.n_configs):
            theta_deg = self.rng.uniform(57.0, 63.0)
            p = self.rng.uniform(0.015, 0.025)
            eta_b = self.rng.uniform(0.8, 0.95)
            sim_seed = self.rng.getrandbits(63)
            base = ["simulate", "--theta-deg", repr(theta_deg), "--rounds", str(self.rounds),
                    "--depol", repr(p), "--eta-b", repr(eta_b), "--attack", self.attack,
                    "--seed", str(sim_seed)]
            self.passes.append([
                Op(f"w{w}", base + ["--workers", str(w), "--output", f"{o}/w{w}.json",
                                    "--table-csv", f"{o}/w{w}.csv"],
                   items=self.rounds, threads=w, outputs=[f"{o}/w{w}.json", f"{o}/w{w}.csv"])
                for w in sorted({1, workers})
            ])
        self.rounds_per_pass = self.rounds * len(self.passes[0])
        self._reference = None

    def warm_up(self):
        call_cli(["simulate", "--theta-deg", "60", "--rounds", "200000", "--workers", str(self.workers),
                  "--attack", self.attack, "--output", str(self.out / "warm.json")])

    def check(self, index, op, code):
        if code != 0:
            return [f"simulate exited with {code}"]
        if op.kind != "w1" and (self._reference is None or self._reference[0] != index - 1):
            return [f"{op.kind} session has no 1-worker output of the same config"]
        errors = check_manifest(op.outputs[0])
        blobs = [Path(p).read_bytes() for p in op.outputs]
        if op.kind == "w1":
            self._reference = (index, blobs)
            found, zs = session_statistics(json.loads(blobs[0]), self.attack != "none")
            errors += found
            self.zscores += [(index, z, one_sided) for z, one_sided in zs]
        elif blobs != self._reference[1]:
            errors.append(f"{op.kind} session output differs from the 1-worker output")
        return errors

    def metrics(self, samples):
        generic = {"work_per_ref": per_ref(samples["w1"])}
        named = {"rounds_per_ref": (generic["work_per_ref"], "rounds/ref"),
                 "rounds_per_ref_2w": (None, "rounds/ref"),  # absent on a 1-core host
                 "rounds_per_s": (per_s(samples["w1"]), "rounds/s"),
                 "rounds_per_s_2w": (None, "rounds/s")}
        if samples.get("w2"):
            generic["side_per_ref"] = per_ref(samples["w2"])
            named["rounds_per_ref_2w"] = (generic["side_per_ref"], "rounds/ref")
            named["rounds_per_s_2w"] = (per_s(samples["w2"]), "rounds/s")
        return generic, named


class AttackedSession(LongSession):
    name = "session-attacked"
    attack = "usd"


class Sweep(Workload):
    """Short run_session calls over seeded (theta, p, eta); 2 of every 8 attacked.

    One operation is a block of 8 sessions, one unit of the mix, so the
    reference work is timed around blocks and not around each ~7 ms session.
    """

    name = "session-sweep"
    rounds = 20_000
    block = 8
    n_blocks = 64

    def __init__(self, seed, root, out_dir, workers):
        super().__init__(seed, root, out_dir, workers)
        for b in range(self.n_blocks):
            configs = []
            for k in range(self.block):
                # noiseless clean sessions exercise the exact zero-QBER gate
                p = 0.0 if k in (1, 5) and b % 2 == 0 else self.rng.uniform(0.01, 0.03)
                configs.append(SessionConfig(
                    angle=ProtocolAngle.from_degrees(self.rng.uniform(50.0, 70.0)),
                    n_rounds=self.rounds,
                    channel=ChannelModel(eta_a=self.rng.uniform(0.9, 1.0), eta_b=self.rng.uniform(0.8, 1.0),
                                         depol_p=p, attacker="usd" if k % 4 == 0 else "none"),
                    seed=self.rng.getrandbits(63),
                ))
            self.passes.append([Op("block", configs=configs, items=self.rounds * self.block)])
        self.rounds_per_pass = self.rounds * self.block
        self.session_seconds = {}           # op index -> wall time of each session of the block

    def execute(self, op):
        timed = []
        for config in op.configs:
            start = perf_counter()
            result = session.run_session(config)
            timed.append((result, perf_counter() - start))
        return timed

    def check(self, index, op, timed):
        errors = []
        for config, (result, _) in zip(op.configs, timed):
            found, zs = session_statistics(result.to_json_dict(), config.channel.attacker != "none")
            errors += found
            self.zscores += [(index, z, one_sided) for z, one_sided in zs]
        self.session_seconds[index] = [seconds for _, seconds in timed]
        return errors

    def metrics(self, samples):
        """Rounds of whole blocks and the median session, both per reference time.

        A block holds every kind of session in its share, so its throughput
        moves when any of them slows down; the median session time (each
        session over the reference time around its block) is the typical
        session's latency, a different statistic of the same traffic.
        """
        blocks = samples["block"]
        wall = [t for b in blocks for t in self.session_seconds[b.index]]
        p50_rate = 1.0 / statistics.median(t / b.ref for b in blocks for t in self.session_seconds[b.index])
        rounds = per_ref(blocks)
        generic = {"work_per_ref": rounds, "side_per_ref": p50_rate}
        named = {
            "rounds_per_ref": (rounds, "rounds/ref"),
            "p50_sessions_per_ref": (p50_rate, "sessions/ref"),
            "rounds_per_s": (per_s(blocks), "rounds/s"),
            "sessions_per_s": (per_s(blocks) / self.rounds, "sessions/s"),
            "session_p50_ms": (statistics.median(wall) * 1e3, "ms"),
        }
        tail = tail_percentile(wall)
        if tail is not None:
            pct, value, beyond = tail
            named[f"session_tail_ms (p{pct:g}, {beyond} of {len(wall)} beyond)"] = (value * 1e3, "ms")
        return generic, named


def tail_percentile(samples):
    """Highest of p90/p99/p99.9 with at least 10 samples beyond it."""
    ordered = sorted(samples)
    best = None
    for pct in (90.0, 99.0, 99.9):
        rank = math.ceil(pct / 100.0 * len(ordered))
        beyond = len(ordered) - rank
        if rank >= 1 and beyond >= 10:
            best = (pct, ordered[rank - 1], beyond)
    return best


WORKLOADS = {w.name: w for w in (Analytic, LongSession, AttackedSession, Sweep)}
