"""Acceptance criteria, one test per criterion.

Each test runs the matching named suite at seed 0, prints a single
pass/fail line, and enforces the stated runtime budget where one
exists.  Everything is exact: a suite passes only with zero failing
cases.
"""

import hashlib

import pytest

from cliffinv.suites import run_suite

CRITERIA = [
    # (number, suite, runtime bound in seconds or None, summary)
    (1, "clifford-dims", 30.0, "dim C0 = dim C1 = 2^(n-1), ranks 1..7 over Q and F_p"),
    (2, "center-law", None, "odd rank: scalar centre; even rank: F[x]/(x^2 - delta)"),
    (3, "disc-additivity", None, "signed discriminant additive on even-rank sums"),
    (4, "components-equal", None, "the two component classes agree (rank 4, trivial disc)"),
    (5, "e2-additivity", 60.0, "e2 additive on 50 random rank-4 pairs"),
    (6, "sum-isomorphism", None, "sum map bijective homomorphism, total rank <= 6, Q and F_3"),
    (7, "metabolic-splitting", None, "hyperbolic C0 splits into two full matrix algebras"),
    (8, "hyperbolic-model", None, "exterior model is an isomorphism for r <= 3"),
    (9, "norm-roundtrip", None, "norm-form components carry the quaternion class, 20 cases"),
    (10, "pfaffian-roundtrip", None, "Albert form e2 = sum of quaternion classes, 10 cases"),
    (11, "surjectivity", 120.0, "every even subset of {2,3,5,7,11,inf} is hit by a preimage"),
    (12, "hilbert-product", None, "product formula on 1000 random symbol pairs"),
    (13, "milnor-residues", None, "reciprocity on 20 random forms; 10 extension certificates"),
    (14, "dedekind-layer", None, "Cl/2, orders, closure, reductions over Z[sqrt(-5)]"),
]


@pytest.mark.parametrize("number,suite,bound,summary", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_acceptance_criterion(number, suite, bound, summary):
    report = run_suite(suite, seed=0)
    status = "PASS" if report.ok else "FAIL"
    line = (
        f"{status} criterion {number} ({suite}): {report.cases} cases, "
        f"{len(report.failures)} failures, {report.wall_time:.1f}s -- {summary}"
    )
    print(line)
    assert report.ok, f"criterion {number} failed: {report.failures[:5]}"
    if bound is not None:
        assert report.wall_time < bound, (
            f"criterion {number} exceeded its runtime budget: "
            f"{report.wall_time:.1f}s >= {bound}s"
        )


# sha256 of run_suite(name, 0).canonical(), recorded before the centre and
# the multiplicativity check read one table entry per basis pair
FROZEN_REPORTS = {
    "center-law": "df1e290b3c1435d375c7cefd02296e669e80894fc41a1fa7bd05fda0a53e9a10",
    "sum-isomorphism": "b72fe92015e863d66fc90e465b82101c244519922fd68eed29ab2d3e3e312dd6",
    # recorded before the hyperbolic model was certified on its operators alone
    "hyperbolic-model": "e02c9e1bcfb326a42cabbee1a233204b19a353cd8b181c9c71c57abe5353667f",
    "metabolic-splitting": "62a2acde1c155ca7943b96f428864f64fcf83089366840acf7d02a8d07fbbc96",
    # recorded before an ideal-valued form kept its generic fibre as a QuadraticForm
    "dedekind-layer": "ca51b6b5051f017b0056dbd783b19afc7e190d598bcef364f875371fa63befca",
    # recorded before column_space_basis read the pivot columns of one elimination
    "pfaffian-roundtrip": "5755cdf4ac02f6d4084ca22ec4d746dafdafd0d5f32eb7fd2aa3657767b37e29",
    # the eight below recorded before linalg's dense Gauss-Jordan, the
    # determinant loop and the singleton pass became one sparse row reduction
    "clifford-dims": "c6f38e3be572bd3112f119986e5155701c0e25ea451bae655730ed61148243fc",
    "components-equal": "3b81eac299262861139c7e51b57bd8f9546cffe3749af0d000fdf6b08739f48e",
    "disc-additivity": "937ffe247a0a1fd8cd957eac7b27e30537cea8ab618c849f6b3ef38c3dba3d84",
    "e2-additivity": "d4c4fd8d372956cee2e7e5ea6673307c0bb1b3f3a6b652b689656816c116d986",
    "hilbert-product": "1a0be71d440c5dcdc6d4119c62fae10415bb80e0e854bee8891ed6b85aa019fa",
    "milnor-residues": "e1ba3d4ecacf40415b00e65659c8cc0b120fc478eebe175028c9d16a5f12eb0d",
    "norm-roundtrip": "17d220667b2a555e6bf961f1bb3d6ec17932e159f818d4d838e693ee3de084fc",
    "surjectivity": "3828a64b5fafb0a58f40add132f0b6cec07c7c3d29c7ddec3ba087e68dd05835",
}


@pytest.mark.parametrize("suite", sorted(FROZEN_REPORTS))
def test_report_frozen(suite):
    canonical = run_suite(suite, seed=0).canonical()
    assert hashlib.sha256(canonical.encode()).hexdigest() == FROZEN_REPORTS[suite]
