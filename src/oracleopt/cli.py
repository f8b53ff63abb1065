"""Command-line entry point: run experiments, generate instances, verify certificates.

Exit codes: 0 on a converged run (or a passing verification), 2 when the
iteration cap was hit, 1 on error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import combinatorial as comb
from .certificates import certificate_from_text, verify_certificate
from .harness import CHOICES, ExperimentConfig, build_instance, load_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oracle-opt",
        description="Iterative linear optimization over separation oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one configured experiment")
    run.add_argument("--config", help="flat key=value config file")
    for f in fields(ExperimentConfig):
        flag = "--graph" if f.name == "graph_file" else "--" + f.name.replace("_", "-")
        run.add_argument(flag, dest=f.name, type=type(f.default), choices=CHOICES.get(f.name))

    gen = sub.add_parser("gen", help="generate a triangle-union instance")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--triangles", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="verify a serialized certificate")
    ver.add_argument("--certificate", required=True)
    ver.add_argument("--instance", help="DIMACS graph the certificate refers to")
    ver.add_argument("--problem", choices=("matching", "stableset"), default="matching")
    return parser


def _cmd_run(args) -> int:
    overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    config = load_config(args.config, overrides)
    summary, trace_path = run_experiment(config)
    status = "converged" if summary.converged else "iteration cap hit"
    print(
        f"{config.problem} {config.method} seed={config.seed}: "
        f"{summary.iterations} iterations, value {summary.gamma:.6g}, "
        f"bound {summary.bound:.6g} ({status})"
    )
    if trace_path:
        print(f"trace: {trace_path}")
    return 0 if summary.converged else 2


def _cmd_gen(args) -> int:
    graph = comb.generate_triangle_instance(args.nodes, args.triangles, args.seed)
    text = comb.to_dimacs(graph, comments=[f"seed={args.seed} triangles={args.triangles}"])
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {graph.n_nodes} nodes, {graph.n_edges} edges to {args.out}")
    return 0


def _row_matches_instance(name: str, cons, graph: comb.Graph, problem: str) -> bool:
    """Whether a certificate row is implied by the instance row of its name.

    Implied means a positive multiple of that row (the general solver
    rescales rows to unit normals) with the same or a larger right-hand
    side; a zero-normal row (zero, ball0) thus needs only b >= 0.
    """
    ref = comb.instance_row(graph, problem, name)
    if ref is None or ref.a.shape != cons.a.shape:
        return False
    norm2 = float(ref.a @ ref.a)
    scale = float(ref.a @ cons.a) / norm2 if norm2 else 1.0
    tol = 1e-9 * max(1.0, scale)
    return bool(
        scale > 0.0
        and np.allclose(cons.a, scale * ref.a, rtol=0.0, atol=tol)
        and cons.b >= scale * ref.b - tol
    )


def _cmd_verify(args) -> int:
    with open(args.certificate, encoding="utf-8") as fh:
        cert = certificate_from_text(fh.read())
    c = R = None
    if args.instance:
        # c and R are the instance's that `run` builds; the certificate's are not trusted.
        instance = build_instance(ExperimentConfig(problem=args.problem, graph_file=args.instance))
        c, R, graph = instance.c, instance.oracle.radius_outer, instance.oracle.graph
        if len(cert.objective) != len(c):
            raise ValueError(
                f"certificate has dimension {len(cert.objective)}, the instance {len(c)}"
            )
    report = verify_certificate(cert, c=c, R=R)
    ok = report.passed
    print(f"aggregation checks: {'pass' if ok else 'FAIL ' + ','.join(report.failures())}")

    if args.instance:
        bad = [
            cons.name
            for cons, mult in cert.rows
            if mult != 0.0
            and not _row_matches_instance(cons.name, cons, graph, args.problem)
        ]
        if bad:
            ok = False
            print(f"rows not valid for the instance: {', '.join(bad)}")
        else:
            print("all used rows are valid for the instance")
    else:
        print("only self-consistency was checked: nothing ties the certificate to a problem")
    print(f"claimed bound: {cert.claimed_bound:.17g}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_verify(args)
    except Exception as exc:  # surface a clean message, reserve 1 for errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
