"""Tests for the command-line front end."""

import json

import pytest

import grpfield.arith
from grpfield.cli import main, parse_spec
from grpfield.errors import ParameterError


class TestParseSpec:
    def test_full_spec(self):
        assert parse_spec("phi(5,2^59*3)") == (5, 59, 3)

    def test_default_cofactor(self):
        assert parse_spec("phi(3,2^7)") == (3, 7, 1)

    def test_rejects_garbage(self):
        # int() reads Arabic-Indic and fullwidth digits, but the grammar
        # is ASCII.
        for bad in ("phi(5,2^59*3", "psi(5,2^59*3)", "phi(5, 2^59*3)", "",
                    "phi(\u0665,2^59*3)", "phi(5,2^\u0665\u0669*3)",
                    "phi(5,2^59*\u0663)", "phi(\uff15,2^59*3)"):
            with pytest.raises(ParameterError):
                parse_spec(bad)


class TestDispatch:
    def test_tables_csv(self, capsys):
        assert main(["params", "tables", "--w", "64", "--q", "2"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "m_plus_1,k,l,c_bound,bits"
        assert out[2] == "5,61,34,134217728,244"

    def test_tables_json(self, capsys):
        assert main(["params", "tables", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["m_plus_1"] == 3

    def test_search(self, capsys):
        rc = main(["params", "search", "--m", "5", "--l", "59",
                   "--c-min", "2", "--c-max", "3"])
        assert rc == 0
        assert "phi(5,2^59*3) bits=243" in capsys.readouterr().out

    def test_estimate(self, capsys):
        assert main(["params", "estimate", "--bits", "244"]) == 0
        out = capsys.readouterr().out
        assert "m_plus_1=5" in out and "interval=21354522" in out

    def test_estimate_prints_prediction(self, capsys):
        assert main(["params", "estimate", "--bits", "60", "--w", "32"]) == 0
        # bateman_horn(5) / (60 ln 2) = 0.0706 over 3 cofactors.
        assert ("interval=3 p_prime=0.0706 est_count=0.212"
                in capsys.readouterr().out)

    def test_estimate_takes_no_sample_size(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["params", "estimate", "--bits", "244",
                  "--sample-primes", "100"])
        assert exc.value.code == 2
        assert "--sample-primes" in capsys.readouterr().err

    def test_hw2(self, capsys):
        assert main(["params", "hw2", "--bits", "243"]) == 0
        assert "phi(5,2^59*3)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["search", "--m", "5", "--l", "59", "--c-min", "2", "--c-max", "3"],
        ["estimate", "--bits", "244"],
        ["hw2", "--bits", "243"],
    ])
    def test_params_take_no_seed(self, command, capsys):
        # The searches' primality bases come from each candidate.
        with pytest.raises(SystemExit) as exc:
            main(["params", *command, "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        assert capsys.readouterr().out == "exhaustive toy sweep: ok\n"

    def test_selftest_takes_no_exhaustive_toy(self, capsys):
        # The toy sweep is always exhaustive; the flag is gone.
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--exhaustive-toy"])
        assert exc.value.code == 2
        assert "--exhaustive-toy" in capsys.readouterr().err

    def test_selftest_with_param(self, capsys):
        assert main(["selftest", "--param", "phi(5,2^54*7)"]) == 0
        assert "phi(5,2^54*7) sample: ok" in capsys.readouterr().out

    def test_selftest_failure_exit_1(self, capsys, monkeypatch):
        # A modmul that returns its first operand fails every field.
        monkeypatch.setattr(grpfield.arith, "modmul", lambda x, y: x)
        assert main(["selftest", "--param", "phi(5,2^59*3)"]) == 1
        assert capsys.readouterr().out == (
            "exhaustive toy sweep: FAIL\nphi(5,2^59*3) sample: FAIL\n")

    def test_bench(self, capsys):
        rc = main(["bench", "--param", "phi(3,2^2*3)", "--iters", "100",
                   "--runs", "5", "--seed", "1"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["param"] == "phi(3,2^2*3)"

    def test_bad_spec_exit_2(self, capsys):
        assert main(["bench", "--param", "nonsense"]) == 2

    @pytest.mark.parametrize("command", ["selftest", "bench"])
    def test_composite_param_exit_2(self, command, capsys):
        # 8951 divides p: the --param field is proven like any other.
        assert main([command, "--param", "phi(5,2^31*33554431)"]) == 2
        out, err = capsys.readouterr()
        assert err == "error: phi_5(2^31*33554431) is composite\n"
        assert "phi(5,2^31*33554431)" not in out

    def test_search_limit_0_exit_2(self, capsys):
        assert main(["params", "search", "--m", "5", "--l", "40",
                     "--c-min", "1048577", "--c-max", "1048976",
                     "--limit", "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["params", "tables", "--frobnicate"])
        assert exc.value.code == 2

    def test_env_seed_ignored(self, capsys, monkeypatch):
        # Only --seed seeds: no environment variable overrides it.
        monkeypatch.setenv("GRP_SEED", "abc")
        assert main(["selftest"]) == 0
        assert capsys.readouterr() == ("exhaustive toy sweep: ok\n", "")
        rc = main(["bench", "--param", "phi(3,2^2*3)", "--iters", "50",
                   "--runs", "5", "--seed", "99"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 99
