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
        "07a56a8873208133e532e2e4e954c8e18f750b5c5745c64f2bfbe87f5905402f",
    ),
    "phase-fixed_sign": (
        PHASE + ["--regime", "fixed_sign"],
        "2f51de8dbd072d5495d484bdcec6a2820677bc6533a76235b288a26cda5042de",
    ),
    "phase-adversarial": (
        PHASE + ["--regime", "adversarial"],
        "e5031b018dfc509cfe6ab54f4a241a828be68b8babc9a48ab35b0d620f61c0a3",
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
        "2a2116a2f67557822fc31ba443781d498d11b7444756462b0a61bf45e477d42c",
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
