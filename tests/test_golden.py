"""Golden digests: the seeded draw contract, pinned end to end.

Each digest hashes every RunRecord field except ``wall_time`` for one short
run (N=30, 100*D evaluations, seed 0) of every variant on a desk benchmark
and on two constrained engineering designs. At this budget rw05 spends every
evaluation resampling the initial population, while rw08 runs 9-11
iterations and resamples after them, so its digests also pin the update
rules on a constrained problem and the stream position after resampling. A change that keeps the random-draw
contract must leave every digest unchanged; a change to the contract must
be declared and the table regenerated with ``golden_digest`` below.
"""

import hashlib
import json

import pytest

from ieco_mco.harness import RunConfig, run_single
from ieco_mco.problems import make_problem

GOLDEN = {
    ("ECO", "f01"): "2f1a4c6d675ffc51c86f",
    ("GECO", "f01"): "68a2ced0d62dc0155a0b",
    ("SECO", "f01"): "2429f5891092c4c67ed8",
    ("DECO", "f01"): "4df6858cec4631ff383d",
    ("IECO-MCO", "f01"): "f8e7e9f9815eaacfc661",
    ("ECO", "rw05"): "85c33e1e35cd1ad791d9",
    ("GECO", "rw05"): "26b1a8e2923812c254db",
    ("SECO", "rw05"): "5e1fe9c6cf368dfc6d34",
    ("DECO", "rw05"): "f431187f49edfb30d811",
    ("IECO-MCO", "rw05"): "f07716c106bb1a776544",
    ("ECO", "rw08"): "02677b73f82901907ca6",
    ("GECO", "rw08"): "fb0314964a378552ee1b",
    ("SECO", "rw08"): "c98da018524296bbfcd5",
    ("DECO", "rw08"): "0a5946944c965106a477",
    ("IECO-MCO", "rw08"): "81ecebcd3fda88657b9f",
}


def golden_digest(algorithm, problem, dimension=10, seed=0):
    spec = make_problem(problem, dimension)
    cfg = RunConfig(algorithm=algorithm, problem=problem, seed=seed,
                    dimension=dimension, n=30, fes_max=100 * spec.dimension)
    rec = run_single(cfg, spec)
    payload = [rec.algorithm, rec.problem, rec.dimension, rec.run, rec.seed,
               [repr(float(v)) for v in rec.best_position],
               repr(rec.best_fitness), repr(rec.best_objective),
               repr(rec.best_violation), bool(rec.feasible),
               [(int(f), repr(float(b))) for f, b in rec.trace],
               rec.evaluations_used]
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


@pytest.mark.parametrize("algorithm,problem", sorted(GOLDEN))
def test_golden_digest(algorithm, problem):
    assert golden_digest(algorithm, problem) == GOLDEN[(algorithm, problem)]
