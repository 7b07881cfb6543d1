"""Golden digests of seeded CLI outputs.

The same flags and seed must give the same bytes, across refactors and
speedups alike.  Each digest is the SHA-256 of one command's stdout,
recorded on NumPy 2.4 / OpenBLAS before a refactor of the code behind it,
and unchanged by that refactor.  A different BLAS build may move
last digits; a change of code must not.
"""

import hashlib

import pytest

from lpdecode.cli import main

PHASE = ["phase", "--m", "60", "--n", "6", "--p", "0.5:1.0:0.5", "--rho", "0.1:0.4:0.15",
         "--trials", "4", "--seed", "5"]

GOLDEN = {
    "phase-arbitrary": (
        PHASE + ["--regime", "arbitrary"],
        "d4162ebdc990ba502455a2a3fbb1a7240c59213d9bd71d21f3cf411cd6cd773d",
    ),
    "phase-fixed_sign": (
        PHASE + ["--regime", "fixed_sign"],
        "023663f63c96191e2963ae17bdd37465ce41b8d8b01131ba5eda518ac2d2bca6",
    ),
    "phase-adversarial": (
        PHASE + ["--regime", "adversarial"],
        "65f2b3ff2453460d5740f182b7f36d4fc251e0bafa1b069c038e95286270eef2",
    ),
    # p = 1 against the attack: one of the five decodes ends at the inner
    # iteration cap of its last phase, not converged
    "phase-adversarial-capped": (
        ["phase", "--m", "200", "--n", "20", "--p", "1.0", "--rho", "0.2", "--trials", "5",
         "--regime", "adversarial", "--seed", "1"],
        "38084e93432d29c0fb8019f121ae43fe749d3eb66b4439cfef48bccb4115ba14",
    ),
    # the README's decode, certify and attack examples
    "decode-readme": (
        ["decode", "--p", "0.5", "--m", "200", "--n", "20", "--rho", "0.2", "--seed", "1"],
        "b056bc3ce264fcfa0f14ab00f59b4580484f0bc16209ed75c2f52d189f0290d4",
    ),
    "certify-readme": (
        ["certify", "--mode", "unsigned", "--p", "0.5", "--m", "400", "--n", "20",
         "--rho", "0.45", "--restarts", "4", "--seed", "2"],
        "ddede4ccb36ceccbe24b78132a71f8399676eae4f9beae503b6a3cbd0ae961c1",
    ),
    # signed mode on a drawn support and signs; the search finds a violation
    "certify-signed": (
        ["certify", "--mode", "signed", "--p", "0.5", "--m", "60", "--n", "6", "--rho", "0.7",
         "--restarts", "4", "--seed", "3"],
        "1d901b536ab2afbce11dad177dc6875e8d3e90ea7d8ec8cf7d172491690d6eea",
    ),
    "attack-arbitrary-readme": (
        ["attack", "--mode", "arbitrary", "--m", "400", "--n", "20", "--p", "0.5",
         "--rho", "0.45", "--seed", "7"],
        "1b889efc301083a4f280bbad7ad7272bae6f14ae87b69ec8d7a9f6f772daeea4",
    ),
    "attack-fixed_sign-readme": (
        ["attack", "--mode", "fixed_sign", "--m", "60", "--n", "4", "--p", "0.5",
         "--rho", "0.8", "--seed", "5"],
        "30c251b917846d411f6a6ebbb79fc59d2025de4d7d29b1c21b755b671a96ea2d",
    ),
    "threshold-derivative": (
        ["threshold", "--p-min", "0.005", "--p-max", "1", "--steps", "200", "--derivative"],
        "97b7f0ca8a437a14fd621ff34e7642b1205067663a7777da5a79c97b27ae47b8",
    ),
    "concentration": (
        ["concentration", "--rho", "0.5:0.8:0.15", "--p", "0.5", "--m", "10000",
         "--trials", "3", "--seed", "4"],
        "f15ac4475dd3dbcb5c02897a09cec779cd53d628cf4155653ef5ca106a2f5dbd",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_output_is_byte_stable(capsys, name):
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
