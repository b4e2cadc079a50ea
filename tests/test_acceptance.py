"""Acceptance suite: one test per release criterion.

Each test name carries the criterion number, so ``pytest -v`` emits one
visible PASS/FAIL line per criterion. Tolerances are pinned as constants
next to each check. The oracle module supplies independent Born-rule
reference computations throughout.
"""

import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import oracle
from oracle import golden_section_max
from entb92.bell import (
    CorrelationTable,
    analytic_ch,
    analytic_ch_max,
    ch_value,
    ch_with_loss,
    chsh_value,
    table_from_state,
)
from entb92.channels import ChannelModel, analytic_pipeline_state
from entb92.cli import main as cli_main
from entb92.rates import (
    PM_REFERENCE_MAX_DEPOL,
    depolarized_ch,
    efficiency_threshold,
    gain_from_ch,
    gain_from_chsh,
    max_depolarization,
    optimal_theta,
    pm_reference_rate,
)
from entb92.session import SessionConfig, run_session
from entb92.states import ProtocolAngle, ch_settings

FIXTURES = Path(__file__).parent / "fixtures"

TOL_CLOSED_FORM = 1e-12
TOL_PIPELINE = 1e-10
TOL_BRIDGE = 1e-10
TOL_GAIN_IDENTITY = 1e-12
TOL_ARGMAX_RAD = 1e-6
TOL_EFFICIENCY = 1e-3
TOL_NOISE = 5e-4
TOL_ANGLE_DEG = 0.1
TOL_ATTACK_SLACK = 1e-12


def pipeline_table(theta, bob_theta=None, eta_a=1.0, eta_b=1.0, depol_p=0.0,
                   attacker="none"):
    ang = ProtocolAngle(theta)
    channel = ChannelModel(eta_a=eta_a, eta_b=eta_b, depol_p=depol_p,
                           attacker=attacker)
    joint = analytic_pipeline_state(ang, channel)
    return table_from_state(joint, ch_settings(ang, bob_theta=bob_theta),
                            channel)


def test_criterion_1_ch_maximum_at_reference_angle():
    assert analytic_ch(math.pi / 3) == pytest.approx(0.125,
                                                     abs=TOL_CLOSED_FORM)
    theta_star, peak = golden_section_max(analytic_ch, 1e-4,
                                          math.pi / 2 - 1e-4, tol=1e-9)
    assert theta_star == pytest.approx(math.pi / 3, abs=TOL_ARGMAX_RAD)
    assert peak == pytest.approx(0.125, abs=TOL_CLOSED_FORM)
    print("ACCEPTANCE 1 PASS: fixed-settings curve peaks at 1/8, "
          "angle pi/3 within 1e-6 rad")


def test_criterion_2_oracle_equivalence():
    # closed form vs the independent Born-rule pipeline, dense angle grid
    for th in np.linspace(0.0, math.pi / 2, 1000):
        assert analytic_ch(th) == pytest.approx(oracle.ch_born(th),
                                                abs=TOL_PIPELINE)

    # loss model on a (theta, eta_a, eta_b) lattice
    for th in np.linspace(0.05, math.pi / 2 - 0.05, 12):
        for ea in np.linspace(0.0, 1.0, 6):
            for eb in np.linspace(0.0, 1.0, 6):
                want = oracle.ch_born(th, eta_a=ea, eta_b=eb)
                assert ch_with_loss(th, ea, eb) == pytest.approx(
                    want, abs=TOL_PIPELINE)

    # depolarizing model on a 100 x 100 lattice
    for th in np.linspace(0.01, math.pi / 2 - 0.01, 100):
        base = analytic_ch(th)
        rho_clean = oracle.proj(oracle.entangled(th))
        for p in np.linspace(0.0, 0.25, 100):
            want = oracle.ch_born(th, rho=oracle.depol_B(rho_clean, p))
            assert depolarized_ch(base, p) == pytest.approx(want,
                                                            abs=TOL_PIPELINE)

    # the package's own measurement pipeline agrees on a coarser lattice
    for th in np.linspace(0.1, math.pi / 2 - 0.1, 8):
        for p in np.linspace(0.0, 0.2, 6):
            got = ch_value(pipeline_table(th, depol_p=p)).value
            assert got == pytest.approx(depolarized_ch(analytic_ch(th), p),
                                        abs=TOL_PIPELINE)
    print("ACCEPTANCE 2 PASS: closed forms match density-matrix pipelines "
          "within 1e-10 on dense grids")


def test_criterion_3_bridge_identity():
    rng = np.random.default_rng(31415)
    for _ in range(1000):
        t = CorrelationTable(mode="probability",
                             grids=oracle.random_no_signaling_grids(rng))
        s_ch = ch_value(t).value
        s_chsh = chsh_value(t).value
        assert s_chsh == pytest.approx(4.0 * s_ch + 2.0, abs=TOL_BRIDGE)

    # the two gain parameterizations are one formula in two variables
    # (grid stops 1e-7 short of the domain edge, the cancellation floor)
    for s in np.linspace(-1.2, 0.207, 1000):
        for q in (0.0, 0.02, 0.05, 0.11, 0.2):
            assert gain_from_ch(s, q) == pytest.approx(
                gain_from_chsh(4.0 * s + 2.0, q), abs=TOL_GAIN_IDENTITY)
    print("ACCEPTANCE 3 PASS: conversion identity holds on 1000 random "
          "tables; gain forms agree to 1e-12")


def test_criterion_4_efficiency_thresholds():
    sym = efficiency_threshold("symmetric")
    bob = efficiency_threshold("bob_perfect")
    ali = efficiency_threshold("alice_perfect")
    assert sym.value == pytest.approx(0.75, abs=TOL_EFFICIENCY)
    assert bob.value == pytest.approx(2.0 / 3.0, abs=TOL_EFFICIENCY)
    assert ali.value == pytest.approx(0.50, abs=TOL_EFFICIENCY)
    print("ACCEPTANCE 4 PASS: detection thresholds 0.75 / 0.667 / 0.50 "
          "within 1e-3")


def test_criterion_5_noise_tolerance():
    fixed = max_depolarization("fixed_settings")
    assert fixed.value == pytest.approx(0.0336, abs=TOL_NOISE)

    tuned = max_depolarization("ch_max")
    assert tuned.value == pytest.approx(0.0234, abs=TOL_NOISE)
    theta_star, _ = optimal_theta(tuned.value - 1e-4, strategy="ch_max")
    assert math.degrees(theta_star) == pytest.approx(75.0, abs=1.0)

    # reference comparison endpoint is a pinned constant, never recomputed
    assert PM_REFERENCE_MAX_DEPOL == 0.034
    assert pm_reference_rate(PM_REFERENCE_MAX_DEPOL) == pytest.approx(
        0.0, abs=1e-15)
    print("ACCEPTANCE 5 PASS: noise tolerance 0.0336 fixed / 0.0234 tuned "
          "with 75 degree operating angle")


def test_criterion_6_optimal_angles():
    for p, want_deg in ((0.01, 61.56), (0.02, 62.65), (0.03, 63.57)):
        theta_star, report = optimal_theta(p)
        assert math.degrees(theta_star) == pytest.approx(want_deg,
                                                         abs=TOL_ANGLE_DEG)
        assert report.normalized_rate > 0.0
    print("ACCEPTANCE 6 PASS: optimal source angles 61.56 / 62.65 / 63.57 "
          "degrees within 0.1")


def test_criterion_7_monte_carlo_consistency(tmp_path):
    ang = ProtocolAngle(math.pi / 3)

    ideal = run_session(SessionConfig(angle=ang, n_rounds=1_000_000, seed=1))
    est = ideal.s_ch_estimate
    assert abs(est.value - 0.125) <= 3.0 * est.standard_error
    assert ideal.qber == 0.0

    noisy = run_session(SessionConfig(
        angle=ang, n_rounds=1_000_000, seed=2,
        channel=ChannelModel(depol_p=0.02)))
    want_q = oracle.qber_closed(math.pi / 3, 0.02)[0]
    sigma_q = math.sqrt(want_q * (1.0 - want_q) / noisy.n_con)
    assert abs(noisy.qber - want_q) <= 3.0 * sigma_q

    # byte-identical output regardless of worker count
    blobs = []
    for tag, workers in (("one", "1"), ("four", "4")):
        out = tmp_path / f"{tag}.json"
        code = cli_main(["simulate", "--theta-deg", "60",
                         "--rounds", "1000000", "--seed", "7",
                         "--workers", workers,
                         "--output", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    print("ACCEPTANCE 7 PASS: million-round session statistics within "
          "3 sigma, zero clean QBER, worker-invariant bytes")


def test_criterion_8_attack_detection():
    for th in np.linspace(1e-4, math.pi / 2 - 1e-4, 500):
        got = ch_value(pipeline_table(th, attacker="usd")).value
        assert got <= 0.0 + TOL_ATTACK_SLACK

    # spot-check the attacked values against the independent reference
    for th in np.linspace(0.1, 1.5, 25):
        got = ch_value(pipeline_table(th, attacker="usd")).value
        assert got == pytest.approx(oracle.attacked_ch(th), abs=TOL_PIPELINE)

    attacked = run_session(SessionConfig(
        angle=ProtocolAngle(math.pi / 3), n_rounds=200_000, seed=17,
        channel=ChannelModel(attacker="usd")))
    assert attacked.aborted
    assert attacked.s_ch_estimate.value < 0.0
    print("ACCEPTANCE 8 PASS: intercepted state never violates the bound; "
          "attacked session aborts")


def test_criterion_9_figure_regeneration(tmp_path):
    regen_curve = tmp_path / "curve.csv"
    assert cli_main(["curve", "--output", str(regen_curve)]) == 0
    assert regen_curve.read_bytes() == (FIXTURES / "curve_golden.csv").read_bytes()

    regen_rate = tmp_path / "rate_curve.csv"
    assert cli_main(["rate-curve", "--output", str(regen_rate)]) == 0
    assert regen_rate.read_bytes() == (FIXTURES / "rate_curve_golden.csv").read_bytes()

    # the two violation curves keep their order and the receiver-angle rule
    for th in np.linspace(1e-3, math.pi / 2 - 1e-3, 500):
        val, bob_theta = analytic_ch_max(th)
        assert val >= analytic_ch(th) - 1e-12
        assert math.tan(bob_theta) == pytest.approx(math.sin(th), abs=1e-12)
    print("ACCEPTANCE 9 PASS: curve and rate-curve CSVs byte-match the "
          "golden fixtures; optimized curve dominates with the stated "
          "receiver-angle rule")
