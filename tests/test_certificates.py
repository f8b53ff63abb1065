import dataclasses

import numpy as np
import pytest

from oracleopt.certificates import (
    CertificateUnavailableError,
    DualCertificate,
    StaleDecompositionError,
    build_general_certificate,
    build_polar_certificate,
    certificate_from_text,
    certificate_to_text,
    verify_certificate,
)
from oracleopt.oracle import BallOracle, Constraint, box_oracle
from oracleopt.solver_general import run_general
from oracleopt.solver_polar import PolarMode, run_polar
from oracleopt.trace import CapOnly, GapStop


def ball_run(max_iters=300):
    oracle = BallOracle(np.zeros(2), 1.0)
    return run_polar(oracle, [1.0, 0.0], gamma1=0.5, stop=GapStop(0.01), max_iters=max_iters)


class TestBuildPolarCertificate:
    def test_met_target_needs_no_ball_row(self):
        res = ball_run()
        state = res.state
        assert state.residual <= 1e-12
        cert = build_polar_certificate(state, R=1.0)
        assert cert.ball_coefficient == pytest.approx(0.0, abs=1e-12)
        assert cert.claimed_bound == pytest.approx(state.gamma)

    def test_single_constraint_formula(self):
        res = ball_run()
        state = res.state
        state.gamma = 1.0
        state.c = np.array([1.1, 0.0])
        state.target = np.array([1.1, 0.0])
        state.aggregate = np.array([1.0, 0.0])
        state.weights = np.zeros(len(state.atoms))
        state.weights[1] = 1.0  # the separated tangent row (1, 0) <= 1
        cert = build_polar_certificate(state, R=1.0)
        assert cert.claimed_bound == pytest.approx(1.1)
        assert verify_certificate(cert).passed

    def test_round_trip_on_converged_run(self):
        res = ball_run()
        report = verify_certificate(res.certificate)
        assert report.passed

    def test_stale_decomposition_rejected(self):
        res = ball_run()
        state = res.state
        state.weights = state.weights * 0.7  # off the simplex
        with pytest.raises(StaleDecompositionError):
            build_polar_certificate(state, R=1.0)


class TestBuildGeneralCertificate:
    def test_bound_formula_with_full_target_weight(self):
        oracle = BallOracle(np.zeros(2), 1.0)
        res = run_general(oracle, [1.0, 0.0], R=1.0, stop=CapOnly(), max_iters=0)
        state = res.state
        state.lam = 1.0
        state.nu = np.array([0.0])
        state.gamma = 0.5
        state.gap_vec = -state.target_lifted() * 0.0  # start from zero gap
        state.gap_vec = np.array([0.06, 0.0, 0.08])
        state.atom_part = state.gap_vec + state.lam * state.target_lifted()
        cert = build_general_certificate(state, R=1.0)
        assert cert.claimed_bound == pytest.approx(state.gamma_out + 2 * 0.1)

    def test_unavailable_without_target_weight(self):
        oracle = BallOracle(np.zeros(2), 1.0)
        res = run_general(oracle, [1.0, 0.0], R=1.0, stop=CapOnly(), max_iters=0)
        with pytest.raises(CertificateUnavailableError):
            build_general_certificate(res.state, R=1.0)

    def test_round_trip_on_translated_ball(self):
        oracle = BallOracle([0.3, 0.0], 0.5)
        res = run_general(oracle, [2.0, 0.0], R=1.0, stop=CapOnly(), max_iters=2000)
        report = verify_certificate(res.certificate)
        assert report.passed
        # sound for the known optimum 2 * 0.8
        assert res.certificate.claimed_bound >= 1.6 - 1e-9


class TestVerifyCertificate:
    def test_negative_multiplier_fails(self):
        cert = ball_run().certificate
        bad = dataclasses.replace(
            cert, rows=[(cert.rows[0][0], -0.01)] + cert.rows[1:]
        )
        report = verify_certificate(bad)
        assert not report.multipliers_nonneg
        assert not report.passed

    def test_tampered_bound_fails(self):
        cert = ball_run().certificate
        bad = dataclasses.replace(cert, claimed_bound=cert.claimed_bound - 0.1)
        report = verify_certificate(bad)
        assert not report.rhs_within_bound or not report.bound_above_gamma
        assert not report.passed

    def test_history_membership_check(self):
        res = ball_run()
        cert = res.certificate
        history = res.state.atoms
        assert verify_certificate(cert, constraint_history=history).passed
        assert not verify_certificate(cert, constraint_history=history[:1]).rows_in_history

    @pytest.mark.parametrize(
        "case, expected",
        [
            ("exact", True),
            ("a_off_2e-9_on_large_entry", True),  # within allclose's rtol=1e-5
            ("a_off_2e-9_on_zero_entry", False),
            ("b_off_2e-9", False),
            ("row_absent", False),
            ("zero_multiplier_row_absent", True),
            ("empty_history", False),
        ],
    )
    def test_history_check_matches_pairwise_allclose(self, case, expected):
        rows = [
            (Constraint(np.array([1.0, 0.0]), 1.0), 0.5),
            (Constraint(np.array([0.6, 0.8]), 1.0), 0.5),
            (Constraint(np.array([0.0, 1.0]), 2.0), 0.0),
        ]
        history = [cons for cons, _ in rows]
        if case == "a_off_2e-9_on_large_entry":
            history[0] = Constraint(np.array([1.0 + 2e-9, 0.0]), 1.0)
        elif case == "a_off_2e-9_on_zero_entry":
            history[0] = Constraint(np.array([1.0, 2e-9]), 1.0)
        elif case == "b_off_2e-9":
            history[1] = Constraint(history[1].a, 1.0 + 2e-9)
        elif case == "row_absent":
            history = history[1:]
        elif case == "zero_multiplier_row_absent":
            history = history[:2]
        elif case == "empty_history":
            history = []
        normal = 0.5 * np.array([1.0, 0.0]) + 0.5 * np.array([0.6, 0.8])
        cert = DualCertificate(
            setting="polar", objective=normal, rows=rows, ball_normal=np.array([1.0, 0.0]),
            ball_rhs=1.0, ball_coefficient=0.0, claimed_bound=1.0, gamma=1.0, R=1.0,
        )
        # The scalar reference: one np.allclose per (used row, history row) pair.
        reference = all(
            any(np.allclose(cons.a, h.a, atol=1e-9) and abs(cons.b - h.b) <= 1e-9 for h in history)
            for cons, m in rows
            if abs(m) > 1e-12
        )
        assert reference is expected
        report = verify_certificate(cert, constraint_history=history)
        assert report == dataclasses.replace(verify_certificate(cert), rows_in_history=expected)

    def test_soundness_against_dense_sample(self):
        rng = np.random.default_rng(61)
        oracle = box_oracle(np.zeros(3), np.ones(3), radius_inner=1.0)
        res = run_polar(
            oracle,
            [1.0, 0.7, 0.4],
            gamma1=0.4,
            stop=GapStop(0.02),
            max_iters=4000,
            mode=PolarMode.PACKING,
        )
        cert = res.certificate
        assert verify_certificate(cert).passed
        sample = rng.uniform(0, 1, size=(500, 3))
        values = sample @ cert.objective
        assert float(values.max()) <= cert.claimed_bound + 1e-6


class TestSerialization:
    def test_text_round_trip_preserves_verification(self):
        res = ball_run()
        text = certificate_to_text(res.certificate)
        back = certificate_from_text(text)
        assert verify_certificate(back).passed
        assert certificate_to_text(back) == text

    def test_packing_slack_round_trip(self):
        oracle = box_oracle(np.zeros(2), np.ones(2), radius_inner=1.0)
        res = run_polar(
            oracle,
            [1.0, 1.0],
            gamma1=0.5,
            stop=GapStop(0.01),
            max_iters=2000,
            mode=PolarMode.PACKING,
        )
        cert = res.certificate
        assert cert.nonneg_slack is not None
        back = certificate_from_text(certificate_to_text(cert))
        assert np.allclose(back.nonneg_slack, cert.nonneg_slack)
        assert verify_certificate(back).passed
