import contextlib
import dataclasses

import numpy as np
import pytest

from oracleopt import certificates
from oracleopt.combinatorial import (
    MatchingOracle,
    StableSetOracle,
    generate_triangle_instance,
    matching_initial_rows,
    random_gnp,
    stableset_initial_rows,
)
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
from oracleopt.corrective import fully_corrective
from oracleopt.oracle import BallOracle, Constraint, PolytopeOracle, box_oracle
from oracleopt.solver_general import run_general
from oracleopt.solver_polar import PolarMode, run_polar
from oracleopt.trace import CapOnly, GapStop


def ball_run(max_iters=300):
    oracle = BallOracle(np.zeros(2), 1.0)
    return run_polar(oracle, [1.0, 0.0], gamma1=0.5, stop=GapStop(0.01), max_iters=max_iters)


def corrective_run(setting, seed, scale=1.0):
    """A fully corrective run on a random polytope in R^5, and its certificate's
    rows with every zero-weight atom kept, in atom order.

    The polytope is 20 named unit-normal halfspaces <a, x> <= 1 plus a box:
    [-1, 1]^5 for the polar and general settings, [0, 1]^5 with nonnegative
    normals for packing.  The objective is drawn in [0.1, 1]^5 times `scale`.
    """
    n = 5
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((4 * n, n))
    packing = setting == "packing"
    if packing:
        normals = np.abs(normals)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    rows = [Constraint(a, 1.0, name=f"half:{i}") for i, a in enumerate(normals)]
    lo = np.zeros(n) if packing else -np.ones(n)
    oracle = PolytopeOracle(rows, box_bounds=(lo, np.ones(n)), radius_outer=float(np.sqrt(n)))
    c = scale * rng.uniform(0.1, 1.0, n)
    options = dict(stop=GapStop(0.01), max_iters=3000, strategy=fully_corrective(1))
    if setting == "general":
        res = run_general(oracle, c, **options)
        state = res.state
        return res, [(atom, state.cnorm * nu / state.lam) for atom, nu in zip(state.atoms.rows, state.nu)]
    mode = PolarMode.PACKING if packing else PolarMode.STANDARD
    res = run_polar(oracle, c, gamma1=0.1 if packing else None, mode=mode, **options)
    state = res.state
    return res, [(atom, state.gamma * w) for atom, w in zip(state.atoms.rows, state.weights)]


def combinatorial_fc1_run(problem):
    """A fully corrective packing run to a 5% gap on a small matching or stable-set instance."""
    if problem == "matching":
        graph = generate_triangle_instance(12, 4, 2)
        oracle, rows = MatchingOracle(graph, max_set_size=11), matching_initial_rows(graph)
        d = graph.n_edges
    else:
        graph = random_gnp(12, 0.55, 0)
        oracle, rows = StableSetOracle(graph), stableset_initial_rows(graph)
        d = graph.n_nodes
    return run_polar(
        oracle, np.ones(d), gamma1=1.0, stop=GapStop(0.05), max_iters=500,
        strategy=fully_corrective(1), mode=PolarMode.PACKING, initial_constraints=rows,
    )


SETTINGS = ("polar", "packing", "general")


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
        state.weights = np.zeros(len(state.atoms.rows))
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
        history = res.state.atoms.rows
        assert verify_certificate(cert, constraint_history=history).passed
        assert not verify_certificate(cert, constraint_history=history[:1]).rows_in_history

    @staticmethod
    def pairwise_reference(rows, history):
        """The scalar reference: one np.allclose per (used row, history row) pair."""
        return all(
            any(np.allclose(cons.a, h.a, atol=1e-9) and abs(cons.b - h.b) <= 1e-9 for h in history)
            for cons, m in rows
            if m != 0
        )

    @pytest.mark.parametrize(
        "case, expected",
        [
            ("exact", True),
            ("a_off_2e-9_on_large_entry", True),  # within allclose's rtol=1e-5
            ("a_off_2e-9_on_zero_entry", False),
            ("b_off_2e-9", False),
            ("row_absent", False),
            ("zero_multiplier_row_absent", True),
            ("tiny_multiplier_row_absent", False),
            ("empty_history", False),
            ("minus_zero_twin", True),  # equal values, other bits
            ("inf_rhs_twin", False),  # the row itself is in the history, but inf is close to nothing
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
        elif case == "tiny_multiplier_row_absent":
            rows[2] = (rows[2][0], 1e-13)
            history = history[:2]
        elif case == "empty_history":
            history = []
        elif case == "minus_zero_twin":
            history[0] = Constraint(np.array([1.0, -0.0]), 1.0)
        elif case == "inf_rhs_twin":
            rows[0] = (Constraint(np.array([1.0, 0.0]), np.inf), 0.5)
            history[0] = rows[0][0]
        normal = 0.5 * np.array([1.0, 0.0]) + 0.5 * np.array([0.6, 0.8])
        cert = DualCertificate(
            setting="polar", objective=normal, rows=rows, ball_normal=np.array([1.0, 0.0]),
            ball_rhs=1.0, ball_coefficient=0.0, claimed_bound=1.0, gamma=1.0, R=1.0,
        )
        assert self.pairwise_reference(rows, history) is expected
        # The scan computes inf - inf for the inf_rhs twin; no other case may warn.
        quiet = np.errstate(invalid="ignore") if case == "inf_rhs_twin" else contextlib.nullcontext()
        with quiet:
            report = verify_certificate(cert, constraint_history=history)
        assert report == dataclasses.replace(verify_certificate(cert), rows_in_history=expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_history_lookup_matches_pairwise_allclose_on_random_histories(self, seed):
        rng = np.random.default_rng(seed)
        n = 4

        def draw():
            a = rng.standard_normal(n)
            a[rng.random(n) < 0.3] = 0.0
            a[rng.integers(n)] = 0.0  # every row has a zero entry to flip or nudge
            return Constraint(a, rng.standard_normal())

        base = [draw() for _ in range(30)]
        kinds = ("twin", "minus_zero", "a_within", "a_beyond", "b_within", "b_beyond", "absent")

        def used_row(kind):
            if kind == "absent":
                return draw()
            h = base[rng.integers(len(base))]
            a, b = h.a.copy(), h.b
            zero = rng.choice(np.flatnonzero(a == 0.0))
            if kind == "minus_zero":
                a[a == 0.0] = -0.0
            elif kind in ("a_within", "a_beyond"):
                a[zero] = 0.5e-9 if kind == "a_within" else 2e-9
            elif kind in ("b_within", "b_beyond"):
                b += 0.5e-9 if kind == "b_within" else 2e-9
            return Constraint(a, b)

        outcomes = []
        for _ in range(150):
            history = [] if rng.random() < 0.1 else [h for h in base if rng.random() < 0.7]
            rows = [
                (used_row(kind), 0.0 if rng.random() < 0.2 else rng.uniform(0.1, 1.0))
                for kind in rng.choice(kinds, size=rng.integers(1, 4))
            ]
            normal = sum(m * cons.a for cons, m in rows)
            cert = DualCertificate(
                setting="polar", objective=normal, rows=rows, ball_normal=np.array([1.0, 0, 0, 0]),
                ball_rhs=1.0, ball_coefficient=0.0, claimed_bound=10.0, gamma=1.0, R=1.0,
            )
            expected = self.pairwise_reference(rows, history)
            report = verify_certificate(cert, constraint_history=history)
            assert report == dataclasses.replace(verify_certificate(cert), rows_in_history=expected)
            outcomes.append(expected)
        assert 0 < sum(outcomes) < len(outcomes)

    def test_row_of_another_length_raises_as_before(self):
        row = Constraint([1.0, 0.0, 0.0], 1.0)
        cert = DualCertificate(
            setting="polar", objective=row.a, rows=[(row, 1.0)], ball_normal=row.a,
            ball_rhs=1.0, ball_coefficient=0.0, claimed_bound=1.0, gamma=1.0, R=1.0,
        )
        assert verify_certificate(cert).passed
        with pytest.raises(ValueError):
            verify_certificate(cert, constraint_history=[Constraint([1.0, 0.0], 1.0)])

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_rows_with_exact_twins_are_found_without_a_scan(self, setting, monkeypatch):
        res, _ = corrective_run(setting, 0)
        cert = certificate_from_text(certificate_to_text(res.certificate))
        history = res.state.atoms.rows

        def no_scan(*args, **kwargs):
            raise AssertionError("np.isclose scanned the history")

        monkeypatch.setattr(certificates.np, "isclose", no_scan)
        assert verify_certificate(cert, constraint_history=history).passed

    def test_slack_outside_packing_fails(self):
        # Slack alone "proves" max -x_1 <= 0 on any body, e.g. on the ball of
        # radius 1 around (-5, 0), whose maximum is 6 at (-6, 0).
        forged = DualCertificate(
            setting="general", objective=np.array([-1.0, 0.0]), rows=[],
            ball_normal=np.array([1.0, 0.0]), ball_rhs=6.0, ball_coefficient=0.0,
            claimed_bound=0.0, gamma=0.0, R=6.0, nonneg_slack=np.array([1.0, 0.0]),
        )
        assert forged.objective @ np.array([-6.0, 0.0]) > forged.claimed_bound
        report = verify_certificate(forged)
        assert not report.passed and report.failures() == ["slack_in_packing"]
        # On a packing body, which lies in the orthant, the same slack is sound.
        assert verify_certificate(dataclasses.replace(forged, setting="packing")).passed

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


class TestSparseRows:
    """Certificates list only the rows with a nonzero multiplier."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("setting", SETTINGS)
    def test_no_row_has_a_zero_multiplier(self, setting, seed):
        res, full = corrective_run(setting, seed)
        cert = res.certificate
        assert cert.setting == setting
        assert any(m == 0.0 for _, m in full)  # the run left zero-weight atoms
        assert all(m != 0.0 for _, m in cert.rows)
        kept = [(cons, m) for cons, m in full if m != 0.0]
        assert [(id(cons), m) for cons, m in cert.rows] == [(id(cons), m) for cons, m in kept]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("setting", SETTINGS)
    def test_zero_weight_atoms_do_not_change_the_report(self, setting, seed):
        res, full = corrective_run(setting, seed)
        cert = res.certificate
        padded = dataclasses.replace(cert, rows=full)
        assert len(padded.rows) > len(cert.rows)
        for history in (None, res.state.atoms.rows):
            report = verify_certificate(cert, constraint_history=history)
            assert report.passed
            assert repr(report) == repr(verify_certificate(padded, constraint_history=history))

    def test_general_certificate_without_rows_verifies(self):
        # All weight on the target, none on any atom: the ball row alone certifies.
        oracle = BallOracle(np.zeros(3), 1.0)
        res = run_general(oracle, [1.0, 2.0, 2.0], R=1.0, stop=CapOnly(), max_iters=0)
        state = res.state
        state.lam = 1.0
        state.nu = np.zeros(len(state.atoms.rows))
        state.atom_part = np.zeros_like(state.gap_vec)
        state.gap_vec = -state.target_lifted()
        cert = build_general_certificate(state, R=1.0)
        assert cert.rows == []
        assert verify_certificate(cert).passed
        assert verify_certificate(cert, constraint_history=state.atoms.rows).passed
        back = certificate_from_text(certificate_to_text(cert))
        assert back.rows == [] and verify_certificate(back).passed


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

    @pytest.mark.parametrize("first, second", [("x", "x"), ("", "row0")], ids=["two_x", "row0"])
    def test_rows_sharing_a_written_name_round_trip(self, first, second):
        # Unnamed rows are written as row{i}, so both cases write one name
        # twice; each row line stands alone, so both rows come back.
        rows = [(Constraint([1.0, 0.0], 1.0, name=first), 1.0),
                (Constraint([0.0, 1.0], 1.0, name=second), 1.0)]
        cert = DualCertificate(
            setting="polar", objective=np.ones(2), rows=rows, ball_normal=np.array([1.0, 0.0]),
            ball_rhs=1.0, ball_coefficient=0.0, claimed_bound=2.0, gamma=1.0, R=1.0,
        )
        text = certificate_to_text(cert)
        back = certificate_from_text(text)
        assert [cons.name for cons, _ in back.rows] == [first or second] * 2
        assert [(cons.a.tolist(), cons.b, m) for cons, m in back.rows] == [
            (cons.a.tolist(), cons.b, m) for cons, m in rows
        ]
        assert verify_certificate(back).passed
        assert verify_certificate(back, constraint_history=[cons for cons, _ in rows]).passed
        assert certificate_to_text(back) == text

    @pytest.mark.parametrize(
        "source", ["matching_polar_fc1", "stableset_polar_fc1", "general_polytope", "polar_c_1e8"]
    )
    def test_text_round_trip_is_bit_exact(self, source):
        if source == "matching_polar_fc1":
            cert = combinatorial_fc1_run("matching").certificate
        elif source == "stableset_polar_fc1":
            cert = combinatorial_fc1_run("stableset").certificate
        elif source == "general_polytope":
            cert = corrective_run("general", 0)[0].certificate
        else:
            cert = corrective_run("polar", 0, scale=1e8)[0].certificate
        text = certificate_to_text(cert)
        back = certificate_from_text(text)
        assert certificate_to_text(back) == text
        assert (back.nonneg_slack is None) == (cert.setting != "packing")
        if back.nonneg_slack is not None:
            assert back.nonneg_slack.tobytes() == cert.nonneg_slack.tobytes()
        assert len(back.rows) == len(cert.rows) > 0
        for (got, got_m), (want, want_m) in zip(back.rows, cert.rows):
            assert got.a.tobytes() == want.a.tobytes()
            assert (got.b.hex(), got_m.hex()) == (want.b.hex(), float(want_m).hex())

    @staticmethod
    def per_element_fmt_vec(v):
        """The former formatter, one f-string per entry: the byte reference."""
        return " ".join(f"{x:.17g}" for x in v)

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_text_matches_per_element_formatter(self, setting, monkeypatch):
        cert = corrective_run(setting, 0)[0].certificate
        text = certificate_to_text(cert)
        monkeypatch.setattr(certificates, "_fmt_vec", self.per_element_fmt_vec)
        assert certificate_to_text(cert) == text

    def test_adversarial_vectors_format_and_parse_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(5)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1 / 3, -1 / 3,
                   1e308, -1e308, np.nextafter(1.0, 2.0), 0.1]
        bits = rng.integers(0, 2**64, size=5000, dtype=np.uint64).view(np.float64)
        v = np.concatenate([special, bits[np.isfinite(bits)]])
        nonfinite = np.array([np.inf, -np.inf, np.nan, 1.0])
        for vec in (v, nonfinite):
            assert certificates._fmt_vec(vec) == self.per_element_fmt_vec(vec)
        cert = DualCertificate(
            setting="general", objective=v, rows=[(Constraint(v[::-1], 1 / 3, name="r"), 0.5)],
            ball_normal=-v, ball_rhs=1e308, ball_coefficient=5e-324, claimed_bound=-0.0,
            gamma=1 / 3, R=2.0,
        )
        text = certificate_to_text(cert)
        back = certificate_from_text(text)
        for got, want in ((back.objective, v), (back.ball_normal, -v), (back.rows[0][0].a, v[::-1])):
            assert got.tobytes() == want.tobytes()
        assert certificate_to_text(back) == text
        monkeypatch.setattr(certificates, "_fmt_vec", self.per_element_fmt_vec)
        assert certificate_to_text(cert) == text


def third_party_check(text):
    """Check a format-2 certificate in plain Python, as a reader with no solver code would:
    the error of the aggregated normal, the aggregated right-hand side and the claimed bound."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    if lines[0] != ["oracle-opt-certificate", "2"]:
        raise ValueError("not a format-2 certificate")
    scalars = {key: [float(x) for x in rest] for key, *rest in lines if key in (
        "objective", "ball-normal", "ball-rhs", "ball-coefficient", "claimed-bound")}
    (coef,), (rhs,) = scalars["ball-coefficient"], scalars["ball-rhs"]
    normal, rhs = [coef * x for x in scalars["ball-normal"]], coef * rhs
    for key, *rest in lines:
        if key == "slack":
            normal[int(rest[0])] -= float(rest[1])
        elif key == "row" and float(rest[1]) >= 0:
            m, b, a = float(rest[1]), float(rest[2]), rest[3:]
            normal, rhs = [n + m * float(x) for n, x in zip(normal, a)], rhs + m * b
        elif key == "row":
            raise ValueError("negative multiplier")
    error = max(abs(n - c) for n, c in zip(normal, scalars["objective"]))
    return error, rhs, scalars["claimed-bound"][0]


@pytest.mark.parametrize("setting", SETTINGS)
def test_a_third_party_reader_checks_the_text(setting):
    # The reader above imports nothing of oracleopt: the text alone proves the bound.
    cert = corrective_run(setting, 0)[0].certificate
    assert cert.setting == setting and len(cert.rows) > 1
    text = certificate_to_text(cert)
    error, rhs, claimed = third_party_check(text)
    # verify_certificate's tolerances: the sum of the rows may round past the bound.
    assert error <= 1e-6 and rhs <= claimed + 1e-6
    assert claimed == cert.claimed_bound
    assert error == pytest.approx(verify_certificate(cert).max_normal_error, abs=1e-12)
    # Halving the largest multiplier breaks the aggregation the reader sees.
    row = max((line for line in text.splitlines() if line.startswith("row ")),
              key=lambda line: float(line.split()[2]))
    name, m, rest = row[4:].split(" ", 2)
    halved = text.replace(row, f"row {name} {float(m) / 2!r} {rest}")
    assert third_party_check(halved)[0] > 1e-6
