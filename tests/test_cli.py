import hashlib
import json
from fractions import Fraction

import jsonschema
import pytest
import sympy

from twistdiv.algebra import StructureConstant, TwistedAlgebra
from twistdiv.cli import main
from twistdiv.groups import LEFT_STANDARD, group_by_name

CLASSIFY_SCHEMA = {
    "type": "object",
    "required": ["group", "basis", "mode", "counts", "survivors", "rejected"],
    "properties": {
        "group": {"type": "string"},
        "basis": {"type": "string"},
        "mode": {"type": "string"},
        "counts": {
            "type": "object",
            "required": ["examined", "rejected", "survivors", "undetermined"],
            "additionalProperties": {"type": "integer"},
        },
        "survivors": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["C", "certificate_kind"],
            },
        },
        "rejected": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["C", "witness"],
            },
        },
    },
}

IDENTITIES_SCHEMA = {
    "type": "object",
    "required": ["algebra", "pattern", "dimension", "monomials"],
    "properties": {
        "dimension": {"type": "integer"},
        "monomials": {"type": "integer"},
        "pattern": {"type": "array", "items": {"type": "integer"}},
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_json(capsys):
    code, out = run_cli(
        capsys, "classify", "--group", "Z2", "--basis", "left", "--mode", "shaped"
    )
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, CLASSIFY_SCHEMA)
    assert data["counts"] == {
        "examined": 2, "rejected": 1, "survivors": 1, "undetermined": 0,
    }
    assert data["survivors"][0]["C"] == [[1, 1], [1, -1]]


def test_classify_raw_json_ties_each_witness_to_its_table(capsys):
    """Raw rejections have no parameters; the table in each entry is what
    its witness values are re-evaluated against."""
    code, out = run_cli(
        capsys, "classify", "--group", "Z2xZ2", "--basis", "left", "--mode", "raw"
    )
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, CLASSIFY_SCHEMA)
    tables = [entry["C"] for entry in data["rejected"]]
    assert len(tables) == 510
    assert len({json.dumps(t) for t in tables}) == 510
    group = group_by_name("Z2xZ2")
    for entry in data["rejected"]:
        algebra = TwistedAlgebra(StructureConstant(group, entry["C"], LEFT_STANDARD))
        w = entry["witness"]
        for point, value in (("positive_point", "positive_value"),
                             ("nonpositive_point", "nonpositive_value")):
            y = algebra.element([Fraction(n, d) for n, d in w[point]])
            oracle = sympy.Matrix(algebra.mult_matrix_left(y)).det()
            assert oracle == sympy.Rational(w[value])


def test_classify_json_real_root_witness(capsys):
    code, out = run_cli(
        capsys, "classify", "--group", "Z4", "--basis", "left", "--mode", "shaped"
    )
    assert code == 0
    roots = [
        r["witness"] for r in json.loads(out)["rejected"]
        if r["witness"]["kind"] != "sign-change"
    ]
    assert roots == [{
        "kind": "real-root-on-line",
        "position": 0,
        "base": ["1", "0", "-1"],
        "coefficients": ["4", "0", "-4", "0", "1"],
        "interval": ["-93/64", "-45/32"],
        "root_count": 1,
    }]


def test_classify_markdown_reproduces_table(capsys):
    code, out = run_cli(
        capsys, "classify", "--group", "Z4", "--basis", "left",
        "--mode", "shaped", "--format", "md",
    )
    assert code == 0
    assert "| 1 | 1 | 1 | 1 | -1 |" in out
    assert "| 2 | 1 | -1 | -1 | 1 |" in out
    assert "| 3 | 1 | 1 | -1 | 1 |" in out


def test_classify_markdown_klein_table(capsys):
    code, out = run_cli(
        capsys, "classify", "--group", "Z2xZ2", "--basis", "right",
        "--mode", "shaped", "--format", "md",
    )
    assert code == 0
    assert "| (1,0) | 1 | -1 | 1 | -1 |" in out
    assert "| (0,1) | 1 | -1 | -1 | 1 |" in out
    assert "| (1,1) | 1 | 1 | -1 | -1 |" in out


def test_classify_deterministic(capsys):
    _, first = run_cli(capsys, "classify", "--group", "Z2xZ2", "--basis", "right")
    _, second = run_cli(capsys, "classify", "--group", "Z2xZ2", "--basis", "right")
    assert first == second


# sha256 of each ``classify`` report, pinned so that a refactor that moves
# any byte of a verdict, witness or certificate shows up here
CLASSIFY_SHA256 = [
    ("Z1", "left", "shaped", "2f865ea618c9d6ddf301bc537b1070ac36303ccd82285f7a30154ba1b41a8dc9"),
    ("Z1", "left", "raw", "858f62b8d11064b39584b0ade6ba8d9d2b11b7349cac3ca0080022666a6e5ee4"),
    ("Z1", "right", "shaped", "a5ea4b689b578efc39c26019da128a7245a8f97478807dcd95be707bcc040097"),
    ("Z1", "right", "raw", "1b1077c2f409ea234abf1081cd555cce517e70144c64142dd2af8133e5afe93c"),
    ("Z2", "left", "shaped", "ddb0276ebb1e8496985ceaab46db87f1722fe2ed3f9ac8023c18279a592da982"),
    ("Z2", "left", "raw", "21afdf95a684c104d04b98a315430a52560f1a7d54d5d5c606e9eabda21ac2ea"),
    ("Z2", "right", "shaped", "21aac6c4d48fd70a1d6d8f988fcb34cd0d1a90b2fdd9d5d8fed9522ce3b5c76a"),
    ("Z2", "right", "raw", "1cd69c831053ff620212098025033ba37629471063172a6c88f9b6cb05b5c2f3"),
    ("Z2xZ2", "left", "shaped", "9ff97b533681a3e1deb61946bd976b8af1a36cb895c1567929d592dda4a1cdc1"),
    ("Z2xZ2", "left", "raw", "55b95e32ffc1255bb995ff37eaadffba45ddd7fd8dfd6c862dc769b837be1ed6"),
    ("Z2xZ2", "right", "shaped", "07a90e34fec18761e30cb74d5ba23f6549d3a7c49ea5ecbab3a6c85a0b3ba607"),
    ("Z2xZ2", "right", "raw", "1ee2e755699f5bfe5f24495c1780cfc2300701630c0f7e02c53bc8f89c877e2e"),
    ("Z4", "left", "shaped", "6c6bacf4c44b475c5cbe90e11f1265905162288c8ae2679899cedc44a014c2cd"),
    ("Z4", "left", "raw", "a8b0511dada7213439807302e2bcfc6224d039fbe5bec5106cdeb84c1720e097"),
    ("Z4", "right", "shaped", "a8114a8066f4f10add0c9f2c23323dc167a8a9135a9d7be4f187c33dea16b9b1"),
    ("Z4", "right", "raw", "33a1d12ecd8b3b9f638b197bdc50a5968ac378a4598af2a71a1f61687aa79309"),
]


@pytest.mark.parametrize("group, basis, mode, digest", CLASSIFY_SHA256)
def test_classify_reports_are_byte_identical(capsys, group, basis, mode, digest):
    code, out = run_cli(
        capsys, "classify", "--group", group, "--basis", basis, "--mode", mode
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_identities_json(capsys, tmp_path):
    emit = tmp_path / "basis.json"
    code, out = run_cli(
        capsys, "identities", "--algebra", "tes", "--pattern", "2,2",
        "--emit", str(emit),
    )
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, IDENTITIES_SCHEMA)
    assert data["dimension"] == 14 and data["monomials"] == 30
    payload = json.loads(emit.read_text())
    assert payload["dimension"] == 14
    assert len(payload["basis"]) == 14
    assert len(payload["basis_by_monomial"]) == 14


def test_identities_pattern_six(capsys):
    code, out = run_cli(capsys, "identities", "--algebra", "tes", "--pattern", "6")
    assert code == 0
    assert json.loads(out)["dimension"] == 34


def test_cohomology_checks(capsys):
    code, out = run_cli(
        capsys, "cohomology", "--algebra", "tes",
        "--check", "cocycle", "--check", "coboundary", "--check", "separable",
    )
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["cocycle"] is True
    assert data["checks"]["coboundary"] is True
    assert data["checks"]["separable"] is False
    assert data["checks"]["violating_triple"] == [1, 1, 1]
    code, _ = run_cli(
        capsys, "cohomology", "--algebra", "tes", "--check", "separable",
        "--fail-on-false",
    )
    assert code == 1


def test_cohomology_show_kappa(capsys):
    code, out = run_cli(capsys, "cohomology", "--algebra", "quat", "--show", "kappa")
    assert code == 0
    assert json.loads(out)["kappa"] == [1, 1, 1, -1]


def test_analyze(capsys):
    code, out = run_cli(
        capsys, "analyze", "--algebra", "tes",
        "--report", "lie,jordan,series,inverses",
    )
    assert code == 0
    data = json.loads(out)
    assert data["lie"]["jacobi"] is True
    assert data["lie"]["heisenberg_ideal"] is True
    assert data["jordan"]["holds"] is False
    assert data["series"]["derived_dimensions"] == [4, 3, 1, 0]
    assert data["series"]["solvable"] is True
    assert data["series"]["nilpotent"] is False
    assert data["inverses"]["kind"] == "chiral"


def test_norms_schwarz(capsys):
    code, out = run_cli(capsys, "norms", "--check", "schwarz", "--samples", "20")
    assert code == 0
    data = json.loads(out)
    assert data["fourth_power_defects"] == {"(p,p)": "-16", "(p,q)": "0", "(s,t)": "8"}
    assert data["pure_factor_nonzero_defects"] == 0


def test_norms_triangle_seeded_deterministic(capsys):
    _, first = run_cli(
        capsys, "norms", "--check", "triangle", "--samples", "5", "--seed", "7"
    )
    _, second = run_cli(
        capsys, "norms", "--check", "triangle", "--samples", "5", "--seed", "7"
    )
    assert first == second
    assert all(v is True for v in json.loads(first)["triangle"].values())


def test_deform(capsys):
    code, out = run_cli(
        capsys, "deform", "--family", "1", "--k", "4",
        "--checks", "neccons,witness,inverse-iso,commutator",
    )
    assert code == 0
    data = json.loads(out)
    assert data["neccons"]["pass"] is True
    assert data["witness_search"]["found"] is False
    assert data["k_inverse_isomorphism"] is True
    assert data["in_range"] is True


def test_deform_commutator_at_k_minus_one(capsys):
    """At k = -1 the bracket [v3, v1] vanishes: no rescaling, no traceback."""
    code, out = run_cli(
        capsys, "deform", "--family", "1", "--k", "-1", "--checks", "commutator"
    )
    assert code == 0
    rescaling = json.loads(out)["commutator_rescaling"]
    assert rescaling["rational_rescaling_exists"] is False
    assert rescaling["brackets_match"] is False


def test_deform_fraction_k(capsys):
    code, out = run_cli(capsys, "deform", "--family", "5", "--k", "1/2")
    assert code == 0
    assert json.loads(out)["in_range"] is True


def test_encrypt_round_trip(capsys):
    code, out = run_cli(
        capsys, "encrypt", "--p", "257", "--key", "1,1,0,0", "--msg", "5,6,7,8"
    )
    assert code == 0
    encoded = out.strip()
    code, out = run_cli(
        capsys, "encrypt", "--p", "257", "--key", "1,1,0,0",
        "--msg", encoded, "--decrypt",
    )
    assert code == 0
    assert out.strip() == "5,6,7,8"


def test_encrypt_invalid_key_exit_code(capsys):
    code = main(["encrypt", "--p", "257", "--key", "4,1,0,0", "--msg", "1,2,3,4"])
    assert code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--group", "Z7"])
    assert exc.value.code == 2


def test_format_is_a_classify_option_only():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--algebra", "tes", "--format", "md"])
    assert exc.value.code == 2


_MALFORMED_DOCS = {
    "short_table": {"group": "Z4", "basis": "left-standard", "ring": "rational",
                    "C": [[1, 1, 1], [1, 1, 1, -1]]},
    "empty_object": {},
    "not_object": [1],
    "num_only": {"group": "Z2", "C": [[1, 1], [1, {"num": 1}]]},
    "string_entry": {"group": "Z2", "C": [[1, 1], [1, "-1"]]},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--algebra", "nosuch"],
        ["analyze", "--algebra", "{short_table}"],
        ["analyze", "--algebra", "{not_json}"],
        ["analyze", "--algebra", "{empty_object}"],
        ["analyze", "--algebra", "{not_object}"],
        ["analyze", "--algebra", "{num_only}"],
        ["analyze", "--algebra", "{string_entry}"],
        ["identities", "--algebra", "tes", "--pattern", "9"],
        ["deform", "--family", "1", "--k", "0"],
        ["deform", "--family", "1", "--k", "1/0"],
        ["encrypt", "--p", "4", "--key", "1,1,0,0", "--msg", "1,2,3,4"],
        ["encrypt", "--p", "7", "--key", "1,2", "--msg", "1,2,3,4"],
        ["analyze", "--algebra", "{directory}"],
        ["identities", "--algebra", "tes", "--pattern", "2,1",
         "--emit", "{missing}/x.json"],
        ["accept", "--only", "99"],
        ["analyze", "--algebra", "tes", "--report", "bogus"],
        ["deform", "--family", "1", "--k", "2", "--checks", "bogus"],
    ],
    ids=["unknown-selector", "short-table", "not-json", "empty-object",
         "not-object", "num-only-entry", "string-entry", "pattern-9", "k-0",
         "k-1-over-0", "p-4", "short-key", "directory", "emit-missing-dir",
         "unknown-criterion", "unknown-report", "unknown-check"],
)
def test_malformed_input_is_a_one_line_usage_error(capsys, tmp_path, argv):
    paths = {}
    for name, doc in _MALFORMED_DOCS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    paths["not_json"] = tmp_path / "not.json"
    paths["not_json"].write_text("{C: [[1")
    paths["directory"] = tmp_path
    paths["missing"] = tmp_path / "missing"
    argv = [a.format(**paths) for a in argv]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_algebra_json_file_selector(capsys, tmp_path):
    spec = {
        "group": "Z4",
        "basis": "left-standard",
        "ring": "rational",
        "C": [[1, 1, 1, 1], [1, 1, 1, -1], [1, -1, -1, 1], [1, 1, -1, 1]],
    }
    path = tmp_path / "tes.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "identities", "--algebra", str(path), "--pattern", "2,1")
    assert code == 0
    assert json.loads(out)["dimension"] == 1


def test_accept_subset(capsys):
    code, out = run_cli(capsys, "accept", "--only", "2,14")
    assert code == 0
    assert "[PASS] criterion  2" in out
    assert "[PASS] criterion 14" in out
    assert "2/2 criteria passed" in out
