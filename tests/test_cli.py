"""CLI surface: JSON reports, exit codes, reproducibility."""

import json

import pytest

from cubicmonodromy import cli


def run(argv):
    return cli.main(argv)


def test_schlafli_check(capsys):
    assert run(["schlafli-check"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["weyl_order"] == 51840
    assert data["tritangent_triples"] == 45
    assert data["passed"] is True


def test_solve_fermat_json(tmp_path):
    out = tmp_path / "solve.json"
    code = run(["solve", "--family", "S3xC2", "--param", "1.3,0",
                "--seed", "4", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["lines"]) == 27
    assert data["max_residual"] < 1e-10
    assert len(data["labeling"]["labels"]) == 27


def test_track_constant_loop_identity(capsys):
    assert run(["track", "--family", "S4", "--param", "0.6,0.8",
                "--seed", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["perm"] == list(range(27))
    assert data["perm_cycles"] == "()"


def test_verify_all_budget_zero_inconclusive(capsys):
    code = run(["verify-all", "--budget", "0"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["all_passed"] is False
    assert len(data["verdicts"]) == 10
    assert all(v["verdict"] == "inconclusive" for v in data["verdicts"])


def test_verify_all_single_claim(tmp_path):
    out = tmp_path / "claims.json"
    code = run(["verify-all", "--claims", "S4-coarse", "--budget", "14",
                "--seed", "1", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["all_passed"] is True
    assert data["verdicts"][0]["claim_id"] == "S4-coarse"


def test_verify_all_seed_change_same_verdicts(tmp_path):
    # different seeds use different loops but reach the same verdicts
    outcomes = []
    for seed in (1, 2):
        out = tmp_path / f"claims{seed}.json"
        code = run(["verify-all", "--claims", "S4-coarse", "--budget", "14",
                    "--seed", str(seed), "--out", str(out)])
        outcomes.append((code, json.loads(out.read_text())["all_passed"]))
    assert outcomes[0] == outcomes[1] == (0, True)


def test_verify_all_unknown_claim():
    with pytest.raises(Exception):
        run(["verify-all", "--claims", "nonsense"])


def test_flexes_solve(capsys):
    assert run(["flexes", "--hesse", "4,0", "--seed", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["points"]) == 9
    assert len(data["collinear_triples"]) == 12


def test_campaign_command(tmp_path):
    out = tmp_path / "campaign.json"
    code = run(["campaign", "--family", "S4", "--budget", "14",
                "--seed", "3", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["group"]["order"] == 4
    assert data["combined_group"]["order"] == 96


def test_reproducibility_same_seed_same_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run(["track", "--family", "S4", "--param", "0.6,0.8",
             "--petal", "0,0", "--seed", "9", "--out", str(path)])
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("command", ["solve", "track"])
def test_flex_family_is_offered_only_to_campaign(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--family", "FlexP9"])
    assert exc.value.code == 2
    assert "invalid choice: 'FlexP9'" in capsys.readouterr().err
