import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
import sympy

from twistdiv.algebra import StructureConstant, TwistedAlgebra
import twistdiv
from twistdiv.cli import main
from twistdiv.deform import family_constant
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



def test_python_dash_m_runs_the_cli_from_a_source_checkout(capsys, tmp_path):
    """``PYTHONPATH=src python -m twistdiv`` prints what ``twistdiv`` does."""
    src = str(Path(twistdiv.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "twistdiv", "classify", "--group", "Z2"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == run_cli(capsys, "classify", "--group", "Z2")[1]

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
    ("Z2xZ2", "left", "raw", "f31a48e7ebb49756884692f59a2c33405f80cf47c3a5f3917bf4b9e223ac4629"),
    ("Z2xZ2", "right", "shaped", "07a90e34fec18761e30cb74d5ba23f6549d3a7c49ea5ecbab3a6c85a0b3ba607"),
    ("Z2xZ2", "right", "raw", "2d1e6eb7fea408451978a1bc58d0566384c1501d14fc228d1f9a5f8cc412f093"),
    ("Z4", "left", "shaped", "6c6bacf4c44b475c5cbe90e11f1265905162288c8ae2679899cedc44a014c2cd"),
    ("Z4", "left", "raw", "a5a3333d46c82d02923fcbeaba8b1f03e7297f1fa4349b295f7f7eeb57b8213d"),
    ("Z4", "right", "shaped", "a8114a8066f4f10add0c9f2c23323dc167a8a9135a9d7be4f187c33dea16b9b1"),
    ("Z4", "right", "raw", "7853f17e887594f863b2d8bb82fca3ecb00900ba569ee491f0189b9c3e1d6b9e"),
]


@pytest.mark.parametrize("group, basis, mode, digest", CLASSIFY_SHA256)
def test_classify_reports_are_byte_identical(capsys, group, basis, mode, digest):
    code, out = run_cli(
        capsys, "classify", "--group", group, "--basis", basis, "--mode", mode
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of ``deform --checks witness`` for families 1-8 at k with a
# Fraction or negative value, or outside the paper's range; 19 of the 56
# find a witness, so a change to the sign-change kernel that moves a
# point or a value shows up here
DEFORM_WITNESS_SHA256 = [
    (1, "2", "eec504069f0d3525798e91937adf65b41a4b07eac60192d0d55ce72cabf51d64"),
    (1, "1/2", "57b4e3fcf15deab553414e9d06778cc5d8a6d389049348a17bcf86e1ecd2179d"),
    (1, "-2", "0073a2e102df0a56fc9a8215fe19a7c826bdf1f39e156949a4152fa63e3b4b48"),
    (1, "-1/2", "28a580c602998ecfd236edde067e289cb29b4dce8d832efdf0d1cc7b2cb4a3f0"),
    (1, "9", "7b945cfac91bb5471997a4c4ec2d6d952507507f03e0da47ca9a382e6df497e5"),
    (1, "91/10", "cdc6559159d402bb7d37b29aac08e6530256ba4fe8e051eaa7933025f252cd47"),
    (1, "1/10", "19173f706682b0f8d6d12f690b5339685e5682bd6a12fc0d7853b0ea947968b0"),
    (2, "2", "d7617f396883c23a7b7e67d41b0921c71dfb0b76527495e26df0e2f0c45210ef"),
    (2, "1/2", "0f7c4c186855f429a53dbafad03d95b0af0e8f630d30677bbe3d7a2018b5b8b5"),
    (2, "-2", "e636469fc4c081660f437e775f0bec8cafe5adf9b819922fcb7a163e52a4ffff"),
    (2, "-1/2", "5732a6857165a90f25552cd8ca6475d950ad691b365948b9f6c50e0a2b4876f2"),
    (2, "9", "a977e258181aba7df423624b2b20b3d7b89d93deaf0ba3b1cd12522447f1dea7"),
    (2, "91/10", "a692ba32393014b9a8871413f29121b6f09ebfc7f5ceb33c38126c6b415836b7"),
    (2, "1/10", "6b7a2bfe58033a2bd12c8cc2633a5d868713f7d131a43bac33c6f467d6592423"),
    (3, "2", "3cf3934d350cbfce4fbcb1cb8cdce25ebe37c295403cbd833101238c3142b0f1"),
    (3, "1/2", "7d794d856343706220d3206941675f2304a850ae7f8de8576f5f0263a600e0fe"),
    (3, "-2", "527ddca3918d9d603365d559e0088c17e5de70d814ea9150a23e5ecb47305db1"),
    (3, "-1/2", "c603757bb8f06682be1de5745b5ea9c94b618af4dbdb009b685938300e337181"),
    (3, "9", "4bd9cb03dcc142f9244dd51dc874364b533ce4423c52fb46c2fbd07d6f67b927"),
    (3, "91/10", "78a448552f932ceca1a28a217ad48d7e86cbf5cdf4476f153dd582c34a4fffef"),
    (3, "1/10", "7dcba68af900cc1133f3359e9dbaa58de8ed42329a4969a227dc354337ba293a"),
    (4, "2", "7cc2708ce0253077e163958c86f40d882b01d235a8c12c1adf56b76ad3a1b7fd"),
    (4, "1/2", "871345e06eb18ffc7eeb434ba9d689d71edd5cc739b0e2d8d10bac3d77f07708"),
    (4, "-2", "76132c1bb8e07c173f178046c5661f4bae9301ba2e1edbe934fb47973da622a5"),
    (4, "-1/2", "b0fb65c4e323036c7339a954e4c4556f1d97bdc4d02d27459f884dfa0528d889"),
    (4, "9", "e3f1c404f54f9a46b08cf690c49e225da081f87e82f1293c46680b32a90e2c25"),
    (4, "91/10", "39d8925b93cfc8451edbb2638c173c553b8dc47eb2b43a357eddfa0d1d0639b4"),
    (4, "1/10", "cee8a567319a5ff4b82f4dca4a0da20a924036cac0efd84e5309c922a437edd2"),
    (5, "2", "ef7a47d47e060053d22f0a1d3176bc5541c8824718cd06a7c65be216f91d0895"),
    (5, "1/2", "ccd7fe4eb8aad0df0c1254624869665ff1820ceb897e46e90335a78ebed01d9b"),
    (5, "-2", "b7fd0dda65a4af74bdf7710c18ae7eebded6893ab6a376c40c2ffb187ab9cff3"),
    (5, "-1/2", "dcd84dd643d41625aa553e91cd6a17cd06a4b3fe88d14d48198d8003760e7b74"),
    (5, "9", "6d2660c1278f0722b4caa1ac296452d8a53736c39996734ddf387e08101566bf"),
    (5, "91/10", "dcb6e7fc4e372c4b7563d6b16af07dfbae6bbb9af25b37d79f01d48fb5688e9f"),
    (5, "1/10", "5fff5861444305bac293b4cf9439d463a7bedc72e1bdc4e90088cb7dc2ecbcb0"),
    (6, "2", "00ae9b1897ebf7f73fa3957a92851e45cdfd5216eb47cc4fd8320c3d1f8750fd"),
    (6, "1/2", "67a4f3ccc10e48664deedd684ada9380e718a8a3c8685c7243668e875f112726"),
    (6, "-2", "9cf20faadb5da003f99c83c4e418e63be9e80222e3e703a2b76c4e07314c633f"),
    (6, "-1/2", "9b35486ae0ffc8146923b86c1c27f12480f6604031e76473a98b0e4abbb0afad"),
    (6, "9", "bfae2296179b66fbf028a1672cbdc61967e4c2d01cc35427d098646cd44ae5d9"),
    (6, "91/10", "41347807099dacbd600081f1a8ec81acc141f40cb9c983d45dbe3755598dece8"),
    (6, "1/10", "963a3e4611b4c2812b8b3e046b0876a5c405a3052c4200e7fee753906e15fc18"),
    (7, "2", "a4bbc4ae503bf62709c415f0f8fd8bf5fffe1b730f5f2701c5e48902b7f4eb81"),
    (7, "1/2", "c900ab491238d712b7865b03bb2e5134965a4c9c07f3cc24222d8d1e90e2ae3c"),
    (7, "-2", "1da1eaf197b0648105cad135fbddbaa8e6e74a39fc3b27001c4229965f0af4d7"),
    (7, "-1/2", "78d68083581a998d2abf3120bf9e60851504b1083e9f0cba656004440c3b6c34"),
    (7, "9", "2551e047c999e3ee110604df9d722dcb010a4a87a195f135b6ae1ec425f59249"),
    (7, "91/10", "1d4e8e10a550d3646d3987ec3bcd5cbf8da894e61f6a0b9580d0a08235f9b610"),
    (7, "1/10", "0ac7ba349da48efb2d3ecfddb21a4a97b6b5b29015bd3e5102c602039acd65f5"),
    (8, "2", "f55784a9ef37521fae283aca440059e6780e3b15e53512ff7c588f8ed62f8692"),
    (8, "1/2", "a207e3d601cb3a429cceb8ddb6825c2d8f9339ba411f51ef370d8094d4199852"),
    (8, "-2", "5c9c434f067786839d249b50657abf54a8d40e33f49e8ebbec768bc13213ffac"),
    (8, "-1/2", "cd9ee2e767c8b37e67f1178fbdd008c5adc6e580983893b2a8d534dc0a519f09"),
    (8, "9", "ebb57d2e4d0a1c6959f1b1293ffb39ca89f06d90d711ddb6c87348055a5956df"),
    (8, "91/10", "ef94dec38b9874627f4154b8da26f0d530616dbe1c4a9b699e06d2f4b6825d94"),
    (8, "1/10", "763280fd325bd4047c80655e1d2e1f31aee9071777daf42b647a32e80e4a549d"),
]


@pytest.mark.parametrize("family, k, digest", DEFORM_WITNESS_SHA256)
def test_deform_witness_reports_are_byte_identical(capsys, family, k, digest):
    code, out = run_cli(
        capsys, "deform", "--family", str(family), f"--k={k}", "--checks", "witness"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of reports whose inputs hold integral Fraction constants, which
# the kernels multiply as ints: ``deform`` with every check at k = 2,
# whose parameters print as Fractions beside ints, and ``analyze`` with
# every report on the family-4 member at k = 2, read from its JSON
# document, whose A^- and A^+ hold integral Fraction sums
DEFORM_ALL_CHECKS_SHA256 = [
    (1, "5cb6a8bf13ec011a0745525ab524fe6f9154a8605274e84e304468270ed596a5"),
    (4, "4d481619cb0bbf7faf0e12ca365f6ad2c9b876409a49ae88ec993d6994c2e54a"),
    (5, "fadabae71f64d20d70504914a8207e248bb720a509edd2086a222ae2f607644f"),
]


@pytest.mark.parametrize("family, digest", DEFORM_ALL_CHECKS_SHA256)
def test_deform_reports_with_every_check_are_byte_identical(capsys, family, digest):
    code, out = run_cli(
        capsys, "deform", "--family", str(family), "--k", "2",
        "--checks", "neccons,witness,inverse-iso,commutator",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_analyze_report_on_a_deformation_member_is_byte_identical(
    capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    algebra = TwistedAlgebra(family_constant(4, 2).constant())
    Path("family4_k2.json").write_text(json.dumps(algebra.to_json()))
    code, out = run_cli(
        capsys, "analyze", "--algebra", "family4_k2.json",
        "--report", "lie,jordan,series,inverses,properties,fingerprint",
    )
    assert code == 0
    digest = "c9e94e0d69d5a538af5796f1760e42292f1adf9219f75d214937d586448544dc"
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


@pytest.mark.parametrize("group", ["Q8", "D4"])
def test_cohomology_q_and_kappa_need_an_abelian_group(capsys, tmp_path, group):
    """On a non-abelian grading group an explicit --show q or --show kappa
    is the same one-line usage error as --check; no --show prints r only."""
    path = tmp_path / f"{group}.json"
    path.write_text(json.dumps({"group": group, "C": [[1] * 8] * 8}))
    code, out = run_cli(capsys, "cohomology", "--algebra", str(path))
    assert code == 0
    assert sorted(json.loads(out)) == ["algebra", "group", "r"]
    for extra in (["--show", "q"], ["--show", "kappa"], ["--check", "cocycle"]):
        code = main(["cohomology", "--algebra", str(path), *extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: checks on q require an abelian grading group\n"


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


def test_analyze_the_reals(capsys, tmp_path):
    path = tmp_path / "z1.json"
    path.write_text(json.dumps({"group": "Z1", "C": [[1]]}))
    code, out = run_cli(capsys, "analyze", "--algebra", str(path))
    assert code == 0
    assert json.loads(out)["inverses"] == {"kind": "two-sided", "witness": None}


def test_norms_schwarz(capsys):
    code, out = run_cli(capsys, "norms", "--check", "schwarz")
    assert code == 0
    data = json.loads(out)
    assert data["fourth_power_defects"] == {"(p,p)": "-16", "(p,q)": "0", "(s,t)": "8"}
    assert data["pure_factor_equality"] is True


@pytest.mark.parametrize(
    "option", [["--samples", "5"], ["--seed", "7"]], ids=["samples", "seed"]
)
def test_norms_takes_no_sample_count_or_seed(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["norms", "--check", "triangle", *option])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


TRIANGLE_KEYS = [f"j={j},n={n}" for j in range(1, 5) for n in range(1, 4)]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["--check", "schwarz"],
            {
                "fourth_power_defects": {"(p,p)": "-16", "(p,q)": "0", "(s,t)": "8"},
                "pure_factor_equality": True,
            },
        ),
        (
            ["--check", "triangle"],
            {"triangle": dict.fromkeys(TRIANGLE_KEYS, True)},
        ),
    ],
    ids=["schwarz", "triangle"],
)
def test_readme_norms_reports_are_pinned(capsys, argv, expected):
    code, out = run_cli(capsys, "norms", *argv)
    assert code == 0
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


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


def test_deform_reports_family_one_constructions_for_family_one_only(capsys):
    """Family 5 at 4 is not isomorphic to family 5 at 1/4, and the bracket
    rescaling is built on family 1: neither check applies."""
    code, out = run_cli(
        capsys, "deform", "--family", "5", "--k", "4",
        "--checks", "inverse-iso,commutator",
    )
    assert code == 0
    data = json.loads(out)
    assert data["family"] == 5
    assert data["k_inverse_isomorphism"] == "skipped: defined for family 1 only"
    assert data["commutator_rescaling"] == "skipped: defined for family 1 only"


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


def test_deform_spaced_negative_fraction_k(capsys):
    """``--k -1/2`` is read as ``--k=-1/2``, with the same output bytes."""
    spaced = run_cli(capsys, "deform", "--family", "1", "--k", "-1/2")
    joined = run_cli(capsys, "deform", "--family", "1", "--k=-1/2")
    assert spaced == joined
    assert spaced[0] == 0 and json.loads(spaced[1])["k"] == "-1/2"


def test_encrypt_spaced_negative_key_and_message(capsys):
    spaced = run_cli(
        capsys, "encrypt", "--p", "257", "--key", "-1,1,0,0", "--msg", "-5,6,7,8"
    )
    joined = run_cli(
        capsys, "encrypt", "--p", "257", "--key=-1,1,0,0", "--msg=-5,6,7,8"
    )
    assert spaced == joined and spaced[0] == 0


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
    "unknown_key": {"group": "Z2", "C": [[1, 1], [1, -1]], "rings": "rational"},
    # Z_7 holds neither 1/2 nor a nonzero 7
    "mod_p_fraction": {"group": "Z2", "ring": "mod-7",
                       "C": [[1, 1], [1, {"num": 1, "den": 2}]]},
    "mod_p_zero_cell": {"group": "Z2", "ring": "mod-7", "C": [[1, 1], [1, 7]]},
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
        ["analyze", "--algebra", "{unknown_key}"],
        ["identities", "--algebra", "tes", "--pattern", "9"],
        ["deform", "--family", "1", "--k", "0"],
        ["deform", "--family", "1", "--k", "1/0"],
        ["deform", "--family", "1", "--k", "0", "--checks", "commutator"],
        ["deform", "--family", "1", "--k", "0", "--checks", "inverse-iso"],
        ["encrypt", "--p", "4", "--key", "1,1,0,0", "--msg", "1,2,3,4"],
        ["encrypt", "--p", "7", "--key", "1,2", "--msg", "1,2,3,4"],
        ["analyze", "--algebra", "{directory}"],
        ["identities", "--algebra", "tes", "--pattern", "2,1",
         "--emit", "{missing}/x.json"],
        ["accept", "--only", "99"],
        ["analyze", "--algebra", "tes", "--report", "bogus"],
        ["deform", "--family", "1", "--k", "2", "--checks", "bogus"],
        ["accept", "--only", ""],
        ["analyze", "--algebra", "{mod_p_fraction}"],
        ["identities", "--algebra", "{mod_p_fraction}", "--pattern", "2,1"],
        ["cohomology", "--algebra", "{mod_p_fraction}"],
        ["analyze", "--algebra", "{mod_p_zero_cell}"],
    ],
    ids=["unknown-selector", "short-table", "not-json", "empty-object",
         "not-object", "num-only-entry", "string-entry", "unknown-key",
         "pattern-9", "k-0", "k-1-over-0", "k-0-commutator",
         "k-0-inverse-iso", "p-4", "short-key", "directory", "emit-missing-dir",
         "unknown-criterion", "unknown-report", "unknown-check", "empty-only",
         "mod-p-fraction-analyze",
         "mod-p-fraction-identities", "mod-p-fraction-cohomology",
         "mod-p-zero-cell"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--algebra", "tes", "--report", ""],
        ["deform", "--family", "1", "--k", "2", "--checks", ""],
        ["encrypt", "--p", str(10**400 + 1), "--key", "1,1,0,0", "--msg", "1,2,3,4"],
        ["analyze", "--algebra", "{huge_modulus}"],
    ],
    ids=["empty-report", "empty-checks", "huge-p", "huge-modulus-json"],
)
def test_empty_lists_and_huge_moduli_are_usage_errors(capsys, tmp_path, argv):
    """An empty name list has no default behind it, and a modulus too
    large to certify prime is refused, each with one error line."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "group": "Z4", "ring": f"mod-{10**400 + 1}",
        "C": [[1, 1, 1, 1], [1, 1, 1, -1], [1, -1, -1, 1], [1, 1, -1, 1]],
    }))
    code = main([a.format(huge_modulus=path) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_analyze_properties_and_fingerprint(capsys):
    """T fails every loop law; H is power associative."""
    code, out = run_cli(
        capsys, "analyze", "--algebra", "tes", "--report", "properties,fingerprint"
    )
    assert code == 0
    data = json.loads(out)
    laws = ("flexible", "power_associative", "alternative", "left_bol",
            "right_bol", "moufang", "commutative", "associative")
    assert not any(data["properties"][law] for law in laws)
    assert data["fingerprint"]["power_associative"] is False
    code, out = run_cli(capsys, "analyze", "--algebra", "quat", "--report", "properties")
    assert code == 0
    assert json.loads(out)["properties"]["power_associative"] is True


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
