"""Golden report bytes.

The SHA-256 of the JSON and CSV report of every default sweep, of the
scanner at n = 2..8 with the default pairs, and of cross-validation at its
defaults, at the wide tier (96 and 128 bits, above the uint64 rows) and at
a grid past k = 64 and 128 bits (1, 65 and 200 bits, k <= 100).  Any
refactor of the engines or of the sweep plumbing must leave these bytes
unchanged; a deliberate change of a report is a change of these
pins and says so.
"""

import hashlib

import pytest

from stirling2adic.verify import (
    SweepConfig,
    cross_validate,
    run_sweep,
    scan_conjecture_mersenne,
    sweep_targets,
)

DEFAULT_PAIRS = [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1)]

# (JSON, CSV) SHA-256 of each default sweep report
SWEEP_SHA256 = {
    "lengyel-eq": (
        "6f302787d6df27dda68e8ff232718f5513d6677efd2473fcf66bb879d7358cf8",
        "7d72e0369ba443e7d7118c6c2c6f39d73e883a87bf0467af803f396562739761",
    ),
    "thm-lower": (
        "836560bc2d4b28f91ccc3f080eeb99881ffb6b03c47f0b74c6a0f2df97e337a3",
        "0b8e5ea356beea151fc9d080ed59bce956e14f41c796a2b98405c8a7326e51b8",
    ),
    "thm-diagonal": (
        "c18ccc41279ea1b11837341b995590117c084c1434c0cee8b281767f6f3a677a",
        "2a658ab616569a5708a2b0b73bd0eca578febe0b2613027c92896f78b12c5014",
    ),
    "thm-shifted-triple": (
        "b7ff7b70f1745a1acc012d78d9186ea2530f9b494ce7763226795db0bae4cbd9",
        "51e776025768255e7841cb1b3e8b9ab55b0bd240fa4fed92e1799b7e71a8771d",
    ),
    "thm-difference": (
        "3592f8464ea9964a65308deabf8bd1fc6e02168f3393cb230c8ff39b8c1c010a",
        "f37d60d19550c597236fee00d5801ead8c3daa04fc125e61f835daa7cd9e4b0e",
    ),
    "lem-shifted-power": (
        "d042608e1d63e8ee69a0b64334f796a5cca61766f7fdc33a3d522912d5e31b6e",
        "400d09c5a909c73090f6af37106c40048e1e5cc3904ecff230f2bb5942a2a396",
    ),
    "lem-theta": (
        "f4d46e5977f46913d94e13c33b705c697adc72ab66c3e0274b155bd376d866b5",
        "c931482fb3087caa818acde1601b542fe39a3b7108281fd615bc974347402c52",
    ),
    "junod": (
        "8648f90bcfc67bb1dffece2c5949082ee719ab1b5f751a0b5129bc01da00cbfd",
        "c47bacbec59d16b5225db568d29d4ddcdbbb44b7ea6d6a6aded097e8f73dafeb",
    ),
    "identities": (
        "6d00a88167c7290f5b4c8d20aef42109a417e788797890f5cab175584d7af551",
        "681a150da51ef0ae403284863316c9c45b0b16ba54089ebea120fe8c0e9ed820",
    ),
    "count-J": (
        "7f7592afd0ad5a138b55d90a43e8d98f9b98b279bc406d6f64abd8430bf8c319",
        "128a381f0fa526b1a32828ee56e6d7c66d54d9bd2dad24f354601c99d351c70a",
    ),
    "diff-congruence": (
        "68743c7eb3531d909ba098456a74c5cd34e69a096bb9e10caab75dcfae9ff07c",
        "16358ca778c450775ccceabf04d43b5af25e3aeb2ec20ec150a69ae6f3e20da9",
    ),
}

SCAN_SHA256 = (
    "282d280a55983d94208dd31c5079aa1c12099abdea9245dfb0acc7274c99dc89",
    "fccc5e90c56f5a2dbcba258212ca612a940af69a9c8817e33cb7c5320f91cda5",
)

XVAL_SHA256 = (
    "26c401adba092dec11f517b899b74f6745ff07d799cbd45cc52eb66eae946ea8",
    "3b04a2756d6ed4145779483a6e85fccb224c3b5d411c9173faef80f07c96049c",
)

XVAL_WIDE_SHA256 = (
    "23b15d3f48ffa9c9a0320abfa7a96f3665cfc59c08394e396460679ea41dc6b4",
    "fc4ad4ecdbe06e255dfa689a5352797ee42ff740db87e729f64f7febfaafd5a6",
)

XVAL_DEEP_SHA256 = (
    "02d6b59127aaf180a972db7019e16fcddbe77048f0ab5f0492da2f5764665545",
    "904b24320f0ddc2f9bf6936337744fade220087a9e1d8fe3604842e331649768",
)


def digests(report) -> tuple[str, str]:
    return tuple(
        hashlib.sha256(text.encode()).hexdigest() for text in (report.to_json(), report.to_csv())
    )


def test_every_target_is_pinned():
    assert set(SWEEP_SHA256) == set(sweep_targets())


@pytest.mark.parametrize("target", sorted(SWEEP_SHA256))
def test_default_sweep(target):
    assert digests(run_sweep(SweepConfig(target))) == SWEEP_SHA256[target]


def test_scanner():
    assert digests(scan_conjecture_mersenne(range(2, 9), DEFAULT_PAIRS)) == SCAN_SHA256


def test_cross_validate():
    assert digests(cross_validate()) == XVAL_SHA256


def test_cross_validate_wide():
    assert digests(cross_validate(n_max=400, k_max=64, bits_list=(96, 128))) == XVAL_WIDE_SHA256


def test_cross_validate_deep():
    report = cross_validate(n_max=200, k_max=100, bits_list=(1, 65, 200))
    assert digests(report) == XVAL_DEEP_SHA256
