"""End-to-end tests of the command-line interface via main()."""

import json
from fractions import Fraction

import pytest

from sbchain.cli import (
    ChainSpecError,
    EXIT_INVALID_CHAIN,
    EXIT_OK,
    EXIT_USAGE,
    load_chain_spec,
    main,
)
from sbchain.simulation import BLOCK_SIZE, SimulationConfig, record_from_json, run_simulation
from toss_oracle import philox_heads

SWAP_SPEC = json.dumps({"states": ["a", "b"], "matrix": [[0, 1], [1, 0]]})
REDUCIBLE_SPEC = json.dumps({"states": ["a", "b"], "matrix": [[1, 0], [0, 1]]})
BAD_ROW_SPEC = json.dumps(
    {"states": ["a", "b"], "matrix": [["1/2", "1/2"], ["1/3", "1/3"]]}
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoadChainSpec:
    def test_full_document(self):
        chain = load_chain_spec(
            json.dumps(
                {
                    "states": ["x", "y"],
                    "matrix": [["1/2", "1/2"], ["1/4", "3/4"]],
                    "initial": [1, 0],
                }
            )
        )
        assert chain.states.labels == ("x", "y")
        assert chain.matrix.entry(1, 0) == Fraction(1, 4)
        assert chain.initial.weights == (1, 0)

    def test_initial_optional(self):
        chain = load_chain_spec(SWAP_SPEC)
        assert chain.initial is None

    def test_bad_json_names_position(self):
        with pytest.raises(ChainSpecError, match="line 1, column"):
            load_chain_spec("{not json")

    def test_float_entry_names_cell(self):
        doc = json.dumps({"states": ["a", "b"], "matrix": [[0.5, 0.5], [0, 1]]})
        with pytest.raises(
            ChainSpecError, match=r"matrix row 0, column 0: floats are not accepted"
        ):
            load_chain_spec(doc)

    def test_bool_entry_names_cell(self):
        doc = json.dumps({"states": ["a", "b"], "matrix": [[1, 0], [0, True]]})
        with pytest.raises(
            ChainSpecError, match=r"matrix row 1, column 1: booleans are not accepted"
        ):
            load_chain_spec(doc)

    def test_bad_rational_string(self):
        doc = json.dumps({"states": ["a"], "matrix": [["1/0"]]})
        with pytest.raises(ChainSpecError, match="matrix row 0, column 0"):
            load_chain_spec(doc)

    def test_unknown_field_is_refused(self):
        doc = json.dumps({"states": ["a"], "matrix": [["1"]], "inital": ["1"]})
        with pytest.raises(ChainSpecError, match='^unknown fields "inital";'):
            load_chain_spec(doc)

    def test_bad_initial_entry(self):
        doc = json.dumps(
            {"states": ["a"], "matrix": [["1"]], "initial": ["0.5"]}
        )
        with pytest.raises(ChainSpecError, match="initial entry 0"):
            load_chain_spec(doc)

    def test_states_must_be_strings(self):
        with pytest.raises(ChainSpecError, match='"states"'):
            load_chain_spec(json.dumps({"states": [1], "matrix": [[1]]}))

    def test_top_level_must_be_object(self):
        with pytest.raises(ChainSpecError, match="JSON object"):
            load_chain_spec("[]")


class TestAnalyze:
    def test_builtin_chain_text(self, capsys):
        code, out, _ = run_cli(capsys, "analyze")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "states:      M_H M_T Tu"
        assert "irreducible: true" in lines
        assert "period:      1" in lines
        assert "aperiodic:   true" in lines
        assert "ergodic:     true" in lines
        assert "stationary:  [1/3, 1/3, 1/3]" in lines

    def test_builtin_chain_json(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc == {
            "states": ["M_H", "M_T", "Tu"],
            "irreducible": True,
            "period": 1,
            "aperiodic": True,
            "ergodic": True,
            "stationary": ["1/3", "1/3", "1/3"],
        }

    def test_periodic_chain_from_file(self, capsys, tmp_path):
        spec = tmp_path / "swap.json"
        spec.write_text(SWAP_SPEC)
        code, out, _ = run_cli(capsys, "analyze", "--chain", str(spec))
        assert code == EXIT_OK
        assert "period:      2" in out
        assert "ergodic:     false" in out
        assert "stationary:  [1/2, 1/2]" in out

    def test_reducible_chain_from_file(self, capsys, tmp_path):
        spec = tmp_path / "reducible.json"
        spec.write_text(REDUCIBLE_SPEC)
        code, out, _ = run_cli(capsys, "analyze", "--chain", str(spec))
        assert code == EXIT_OK
        assert "irreducible: false" in out
        assert "period:      n/a" in out
        assert "stationary:  n/a" in out

    def test_invalid_chain_exits_3(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(BAD_ROW_SPEC)
        code, out, err = run_cli(capsys, "analyze", "--chain", str(spec))
        assert code == EXIT_INVALID_CHAIN
        assert out == ""
        assert "invalid chain" in err
        assert "row 1 sums to 2/3" in err

    def test_huge_sum_exits_3(self, capsys, tmp_path):
        # Each denominator converts, but the sum's denominator has 6001 digits.
        spec = tmp_path / "huge.json"
        row = [f"1/{10**3000 + 1}", f"1/{10**3000 + 3}"]
        spec.write_text(json.dumps({"states": ["a", "b"], "matrix": [row, [0, 1]]}))
        code, out, err = run_cli(capsys, "analyze", "--chain", str(spec))
        assert code == EXIT_INVALID_CHAIN
        assert out == ""
        assert "row 0 sums to 2" in err

    def test_integer_past_digit_limit_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "long.json"
        spec.write_text('{"states": ["a"], "matrix": [[1%s]]}' % ("0" * 4400))
        code, out, err = run_cli(capsys, "analyze", "--chain", str(spec))
        assert code == EXIT_USAGE
        assert out == ""
        assert "invalid JSON: an integer has more than" in err
        assert "set_int_max_str_digits" not in err

    def test_rational_part_past_digit_limit_exits_3(self, capsys, tmp_path):
        # The cell parses to 1/10**4400, so the row fails as a chain, not as text.
        spec = tmp_path / "long.json"
        spec.write_text(json.dumps({"states": ["a"], "matrix": [["1/1" + "0" * 4400]]}))
        code, out, err = run_cli(capsys, "analyze", "--chain", str(spec))
        assert code == EXIT_INVALID_CHAIN
        assert out == ""
        assert err == f"error: invalid chain: row 0 sums to 1/1{'0' * 4400}, expected 1\n"

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "broken.json"
        spec.write_text('{"states": ')
        code, _, err = run_cli(capsys, "analyze", "--chain", str(spec))
        assert code == EXIT_USAGE
        assert "invalid JSON" in err

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "deep.json"
        spec.write_text("[" * 100_000)
        code, _, err = run_cli(capsys, "analyze", "--chain", str(spec))
        assert code == EXIT_USAGE
        assert "nested too deeply" in err
        assert "Traceback" not in err

    def test_float_entries_exit_2(self, capsys, tmp_path):
        spec = tmp_path / "floaty.json"
        spec.write_text(
            json.dumps({"states": ["a", "b"], "matrix": [[0.5, 0.5], [0, 1]]})
        )
        code, _, err = run_cli(capsys, "analyze", "--chain", str(spec))
        assert code == EXIT_USAGE
        assert "floats are not accepted" in err

    def test_null_entry_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "null.json"
        spec.write_text(json.dumps({"states": ["a", "b"], "matrix": [[1, 0], [None, 1]]}))
        code, out, err = run_cli(capsys, "analyze", "--chain", str(spec))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: matrix row 1, column 0: only Fractions, ints and strings")
        assert "got NoneType: None" in err

    def test_misspelt_field_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "typo.json"
        spec.write_text(
            json.dumps({"states": ["a"], "matrix": [["1"]], "inital": ["1"]})
        )
        code, out, err = run_cli(capsys, "analyze", "--chain", str(spec))
        assert code == EXIT_USAGE
        assert out == ""
        assert '"inital"' in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "analyze", "--chain", str(tmp_path / "nope.json")
        )
        assert code == EXIT_USAGE
        assert "cannot read chain spec" in err


class TestExact:
    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--n-max", "3")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == [
            "n", "recursion", "closed", "form", "equal", "tv", "to", "stationary"
        ]
        assert len(lines) == 4
        assert lines[1].endswith("1/3")
        assert lines[2].endswith("1/6")
        assert lines[3].endswith("1/12")
        assert all("true" in line for line in lines[1:])

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--n-max", "2", "--format", "csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n,recursion,closed_form,equal,tv_to_stationary"
        assert lines[1] == "1,1/2 1/2 0,1/2 1/2 0,true,1/3"
        assert lines[2] == "2,1/4 1/4 1/2,1/4 1/4 1/2,true,1/6"

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--n-max", "2", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc[1] == {
            "n": 2,
            "recursion": ["1/4", "1/4", "1/2"],
            "closed_form": ["1/4", "1/4", "1/2"],
            "equal": True,
            "tv_to_stationary": "1/6",
        }

    def test_nonpositive_n_max_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--n-max", "0")
        assert code == EXIT_USAGE
        assert "--n-max" in err


class TestSimulate:
    def test_text_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--seed", "1", "--n", "1000", "--stride", "1000"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "generator:          philox4x64"
        assert lines[1] == "seed:               1"
        assert lines[2] == "experiments:        1000"
        assert any(line.startswith("halfer statistic:   0.") for line in lines)
        assert any(line.startswith("state frequencies:  M_H=0.") for line in lines)

    def test_json_matches_library_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--seed", "3", "--n", "2000", "--stride", "500",
            "--format", "json",
        )
        assert code == EXIT_OK
        config = SimulationConfig(seed=3, n_experiments=2000, checkpoint_stride=500)
        assert record_from_json(out) == run_simulation(config)

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--seed", "3", "--n", "100", "--stride", "50",
            "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "experiments,awakenings,halfer,thirder,freq_MH,freq_MT,freq_TU"
        assert len(lines) == 3
        assert lines[1].startswith("50,")
        assert lines[2].startswith("100,")

    def test_identical_invocations_identical_output(self, capsys):
        argv = ("simulate", "--seed", "11", "--n", "10000", "--format", "json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_heads_count_is_the_published_philox(self, capsys):
        # The no-numpy CI job pins the same count from the pure-Python oracle.
        code, out, _ = run_cli(capsys, "simulate", "--n", "100000", "--seed", "7")
        assert code == EXIT_OK
        assert "heads experiments:  50145\n" in out
        blocks = [philox_heads(7, 0, BLOCK_SIZE), philox_heads(7, 1, 100000 - BLOCK_SIZE)]
        assert sum(map(sum, blocks)) == 50145

    def test_heads_count_across_block_boundaries(self, capsys):
        # Blocks of 65536, 65536 and 9 tosses, each drawn by the one
        # generator re-keyed; the no-numpy CI job pins the oracle's sum.
        code, out, _ = run_cli(capsys, "simulate", "--n", "131081", "--seed", "7")
        assert code == EXIT_OK
        assert "heads experiments:  65772\n" in out

    def test_zero_experiments_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "0")
        assert code == EXIT_USAGE
        assert "n_experiments" in err

    def test_negative_seed_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--seed", "-5", "--n", "10")
        assert code == EXIT_USAGE
        assert "seed" in err


class TestConvert:
    def test_encode(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "encode", "H", "T")
        assert code == EXIT_OK
        assert out == "MH MT TU\n"

    def test_encode_lowercase(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "encode", "h", "t", "h")
        assert code == EXIT_OK
        assert out == "MH MT TU MH\n"

    def test_project(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "project", "MH", "MT", "TU")
        assert code == EXIT_OK
        assert out == "M M TU\n"

    def test_project_rejects_invalid_sequence(self, capsys):
        code, _, err = run_cli(capsys, "convert", "project", "MT", "MH")
        assert code == EXIT_USAGE
        assert "not followed by Tu" in err

    def test_decode_default_leaves_trailing_m_open(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "decode", "M", "TU", "M")
        assert code == EXIT_OK
        assert out == "MT TU ?\n"

    def test_decode_complete(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "decode", "M", "TU", "M", "--complete"
        )
        assert code == EXIT_OK
        assert out == "MT TU MH\n"

    def test_decode_rejects_leading_tu(self, capsys):
        code, _, err = run_cli(capsys, "convert", "decode", "TU", "M")
        assert code == EXIT_USAGE
        assert "start with Tu" in err

    def test_bad_coin_token(self, capsys):
        code, _, err = run_cli(capsys, "convert", "encode", "H", "X")
        assert code == EXIT_USAGE
        assert "not a coin toss" in err
