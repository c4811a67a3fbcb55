import dataclasses
import json
import re
from pathlib import Path

import pytest

from ensql import cli
from ensql.catalog import introspect
from ensql.cli import main
from ensql.formats import RepresentationFormat, render
from ensql.gateway import RecordingChatBackend
from ensql.generation import FewShotStore, load_generation_system_prompt
from ensql.harness import load_dataset, run_benchmark
from ensql.records import read_records
from ensql.config import PipelineConfig

from conftest import GOLDEN_DIR
from helpers import ScriptedBackend, TOY_BENCH, ToyScript, write_toy_dataset


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """A toy dataset plus a replay fixture recorded from one scripted run."""
    root = tmp_path_factory.mktemp("cli")
    dataset = write_toy_dataset(root / "data")
    fixture = root / "fixture.jsonl"
    items = load_dataset(dataset)
    with RecordingChatBackend(ScriptedBackend(ToyScript()), fixture) as backend:
        run_benchmark(PipelineConfig.default(), items, backend, workers=1,
                      record_timing=False)
    return {
        "dataset": str(dataset),
        "fixture": str(fixture),
        "db": str(dataset / "dev_databases" / "toy_shop" / "toy_shop.sqlite"),
    }


@pytest.fixture(scope="module")
def described_env(cli_env, tmp_path_factory):
    """A config naming column descriptions, and a fixture that run recorded with it.

    The scripted model stands in for --live, so the recording goes through
    the command's own input loading.
    """
    root = tmp_path_factory.mktemp("described")
    descriptions = root / "descriptions.json"
    descriptions.write_text(
        json.dumps({"toy_shop": {"users": {"name": "customer full name"}}}), encoding="utf-8"
    )
    config = root / "config.json"
    config.write_text(json.dumps({"descriptions_path": str(descriptions)}), encoding="utf-8")
    fixture = root / "fixture.jsonl"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_live_backend", lambda: ScriptedBackend(ToyScript()))
        assert main(["run", "--dataset", cli_env["dataset"], "--live", "--workers", "1",
                     "--config", str(config), "--record", str(fixture)]) == 0
    return {"config": str(config), "fixture": str(fixture)}


class TestArgumentErrors:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_run_requires_backend_choice(self, cli_env):
        with pytest.raises(SystemExit) as err:
            main(["run", "--dataset", cli_env["dataset"]])
        assert err.value.code == 2

    def test_live_and_replay_conflict(self, cli_env):
        with pytest.raises(SystemExit) as err:
            main(["run", "--dataset", cli_env["dataset"], "--live",
                  "--replay", cli_env["fixture"]])
        assert err.value.code == 2

    def test_missing_replay_file(self, cli_env, capsys):
        rc = main(["run", "--dataset", cli_env["dataset"],
                   "--replay", "/nonexistent/fixture.jsonl"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_live_without_api_key(self, cli_env, capsys, monkeypatch):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        rc = main(["run", "--dataset", cli_env["dataset"], "--live"])
        assert rc == 1
        assert "OPENAI_API_KEY" in capsys.readouterr().err


class TestRun:
    def test_replay_benchmark(self, cli_env, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        rc = main(["run", "--dataset", cli_env["dataset"],
                   "--replay", cli_env["fixture"], "--out", str(out),
                   "--workers", "2"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "EX     | LLM Calls Typical(Avg.) | Tokens (K) | Cost ($)" in stdout
        assert "80.00" in stdout
        assert f"wrote {len(TOY_BENCH)} records" in stdout
        records = read_records(out)
        assert len(records) == len(TOY_BENCH)
        assert all(r.wall_ms == 0.0 for r in records)  # replay disables timing

    def test_progress_line_per_question_on_stderr(self, cli_env, capsys):
        assert main(["run", "--dataset", cli_env["dataset"], "--replay", cli_env["fixture"],
                     "--workers", "2"]) == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if " questions, EX " in line]
        n = len(TOY_BENCH)
        assert [line.split(" ", 1)[0] for line in lines] == [f"{i}/{n}" for i in range(1, n + 1)]
        assert captured.err.splitlines()[-1] == lines[-1]
        table = captured.out.splitlines()
        ex = table[table.index(next(line for line in table if line.startswith("EX ")))
                   + 1].split("|")[0].strip()
        assert ex == "80.00"
        assert lines[-1].startswith(f"{n}/{n} questions, EX {ex} over ")
        assert " questions, EX " not in captured.out

    def test_replay_is_deterministic(self, cli_env, tmp_path, capsys):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        for out in (out_a, out_b):
            assert main(["run", "--dataset", cli_env["dataset"],
                         "--replay", cli_env["fixture"], "--out", str(out)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_replayed_records_match_the_pinned_records(self, cli_env, tmp_path, capsys):
        # toy_run_records.jsonl holds this command's records from an engine that
        # executed every slot and the reference apart; sharing executions
        # must not change one byte
        out = tmp_path / "records.jsonl"
        assert main(["run", "--dataset", cli_env["dataset"], "--replay", cli_env["fixture"],
                     "--out", str(out), "--workers", "2"]) == 0
        capsys.readouterr()
        assert out.read_bytes() == (GOLDEN_DIR / "toy_run_records.jsonl").read_bytes()

    def test_recorded_fixture_is_sorted_when_the_command_ends(self, cli_env, tmp_path,
                                                              capsys):
        copy = tmp_path / "copy.jsonl"
        assert main(["run", "--dataset", cli_env["dataset"], "--replay", cli_env["fixture"],
                     "--record", str(copy), "--workers", "2"]) == 0
        capsys.readouterr()
        assert copy.read_bytes() == Path(cli_env["fixture"]).read_bytes()


class TestAsk:
    def test_prints_chosen_sql(self, cli_env, capsys):
        rc = main(["ask", "--db", cli_env["db"],
                   "--question", TOY_BENCH[0]["question"],
                   "--replay", cli_env["fixture"]])
        assert rc == 0
        assert capsys.readouterr().out == "SELECT COUNT(*) FROM users\n"

    def test_escalated_question(self, cli_env, capsys):
        rc = main(["ask", "--db", cli_env["db"],
                   "--question", TOY_BENCH[2]["question"],
                   "--replay", cli_env["fixture"]])
        assert rc == 0
        assert capsys.readouterr().out.startswith("SELECT SUM(o.quantity)")


class TestRender:
    def test_single_format_bytes(self, cli_env, capsys):
        rc = main(["render", "--db", cli_env["db"], "--format", "mschema"])
        assert rc == 0
        expected = render(introspect(cli_env["db"], sample_k=3),
                          RepresentationFormat.COMPACT_TAGGED)
        assert capsys.readouterr().out == expected

    def test_all_formats(self, cli_env, capsys):
        rc = main(["render", "--db", cli_env["db"]])
        assert rc == 0
        stdout = capsys.readouterr().out
        for fmt in RepresentationFormat:
            assert f"=== {fmt.value} ===" in stdout

    def test_unknown_format(self, cli_env, capsys):
        rc = main(["render", "--db", cli_env["db"], "--format", "yaml"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_sample_k_defaults_to_the_config_s(self, cli_env, capsys, monkeypatch):
        config = dataclasses.replace(PipelineConfig.default(), sample_k=1)
        monkeypatch.setattr(PipelineConfig, "default", lambda: config)
        assert main(["render", "--db", cli_env["db"], "--format", "compact_tagged"]) == 0
        expected = render(introspect(cli_env["db"], sample_k=1),
                          RepresentationFormat.COMPACT_TAGGED)
        assert capsys.readouterr().out == expected

    def test_a_negative_sample_k_is_refused(self, cli_env, capsys):
        rc = main(["render", "--db", cli_env["db"], "--sample-k", "-1"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: bad config value for sample_k: -1 is not an integer of at least 0\n"


class TestLinkEval:
    def test_scores_replayed_linker(self, cli_env, capsys):
        rc = main(["link-eval", "--dataset", cli_env["dataset"], "--limit", "3",
                   "--replay", cli_env["fixture"]])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "model gpt-4o, schema format compact_tagged" in stdout
        assert "tables : precision" in stdout
        assert "columns: precision" in stdout

    def test_replays_a_run_fixture_for_another_linker(self, cli_env, capsys, caplog):
        # run's DDL slot links with gemini-1.5-pro, so its requests are recorded
        with caplog.at_level("WARNING"):
            rc = main(["link-eval", "--dataset", cli_env["dataset"],
                       "--replay", cli_env["fixture"],
                       "--format", "ddl", "--model", "gemini-1.5-pro"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "model gemini-1.5-pro, schema format ddl" in stdout
        assert f"questions scored: {len(TOY_BENCH)} (skipped 0)" in stdout
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == []

    def test_replays_a_run_fixture_recorded_with_descriptions(self, cli_env, described_env,
                                                              capsys, caplog):
        with caplog.at_level("WARNING"):
            rc = main(["link-eval", "--dataset", cli_env["dataset"],
                       "--config", described_env["config"],
                       "--replay", described_env["fixture"],
                       "--format", "commented_tuples", "--model", "gpt-4o"])
        assert rc == 0
        assert f"questions scored: {len(TOY_BENCH)} (skipped 0)" in capsys.readouterr().out
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == []

    def test_replay_miss_fails_loudly(self, cli_env, capsys):
        # run never asked the default linker (gpt-4o) about the DDL schema
        rc = main(["link-eval", "--dataset", cli_env["dataset"],
                   "--replay", cli_env["fixture"], "--format", "ddl"])
        assert rc == 1
        assert "error: no recorded response" in capsys.readouterr().err


class TestReport:
    @pytest.fixture()
    def records_path(self, cli_env, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        assert main(["run", "--dataset", cli_env["dataset"],
                     "--replay", cli_env["fixture"], "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_reaggregates(self, records_path, capsys):
        rc = main(["report", "--records", str(records_path)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "EX     | LLM Calls Typical(Avg.) | Tokens (K) | Cost ($)" in stdout
        assert "80.00" in stdout

    def test_bounds_and_votes(self, records_path, capsys):
        rc = main(["report", "--records", str(records_path),
                   "--bounds", "--by-vote"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "accuracy bounds by candidate count:" in stdout
        assert "n=5: items 10" in stdout
        assert "accuracy by winning vote count:" in stdout

    def test_the_golden_records_report_byte_for_byte(self, capsys):
        # the same file is diffed against the installed console script's output
        assert main(["report", "--records", str(GOLDEN_DIR / "toy_run_records.jsonl"),
                     "--bounds", "--by-vote"]) == 0
        golden = (GOLDEN_DIR / "toy_report.txt").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == golden

    def test_custom_price_table(self, records_path, tmp_path, capsys):
        table = tmp_path / "prices.json"
        table.write_text(json.dumps(
            {"gemini-1.5-flash": {"input_per_million": "1000000",
                                  "output_per_million": "1000000"}}
        ), encoding="utf-8")
        rc = main(["report", "--records", str(records_path),
                   "--price-table", str(table)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "total cost ($): 0.000000" not in stdout


class TestMalformedInputFiles:
    """A malformed input file stops the command with its path, not a traceback."""

    REPLAY_RUN = "run --dataset {dataset} --replay {fixture}"

    @pytest.mark.parametrize("command, text, problem", [
        ("report --records {bad}", "[]", ":1: bad run record"),
        ("run --dataset {dataset} --replay {bad}", "[]", ":1: bad replay record"),
        ("run --dataset {dataset} --replay {bad}",
         '{"digest": "d", "text": "t", "input_tokens": [1], "output_tokens": 1}',
         ":1: bad replay record"),
        ("report --records {golden} --price-table {bad}", '{"m": {}}', ": bad price table"),
        ("report --records {golden} --price-table {bad}",
         '{"m": {"input_per_million": "x", "output_per_million": 1}}', ": bad price table"),
        ("report --records {golden} --price-table {bad}",
         '{"m": {"input_per_million": "NaN", "output_per_million": 1}}',
         ": bad price table: model 'm' has a price of NaN"),
        ("report --records {golden} --price-table {bad}",
         '{"m": {"input_per_million": 1, "output_per_million": Infinity}}',
         ": bad price table: model 'm' has a price of Infinity"),
        ("report --records {golden} --price-table {bad}",
         '{"m": {"input_per_million": -0.5, "output_per_million": 1}}',
         ": bad price table: model 'm' has a price of -0.5"),
        ("report --records {golden} --price-table {bad}", "{oops",
         ": bad price table: not valid JSON"),
        ("report --records {golden} --price-table {bad}", "[" * 100_000,
         ": bad price table: not valid JSON"),
        (REPLAY_RUN + " --descriptions {bad}", "[]", ": bad descriptions"),
        (REPLAY_RUN + " --config {bad}", '{"workers": "many"}', ": bad config"),
        (REPLAY_RUN + " --fewshot-store {bad}", '"q"', ":1: bad store record"),
        ("run --dataset {bad} --replay {fixture}", "{}", ": bad dataset"),
    ], ids=["records", "replay_list", "replay_tokens", "price_missing_key",
            "price_not_a_number", "price_nan", "price_infinite", "price_negative",
            "price_not_json", "price_nested_too_deep",
            "descriptions", "config", "fewshot_store", "dataset"])
    def test_refused_with_its_path(self, cli_env, tmp_path, capsys, command, text, problem):
        bad = tmp_path / "bad.json"
        bad.write_text(text + "\n", encoding="utf-8")
        argv = command.format(
            bad=bad, golden=GOLDEN_DIR / "toy_run_records.jsonl", **cli_env
        ).split()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"error: {bad}{problem}")
        assert "Traceback" not in err


class TestConfigValuesAreChecked:
    """A bad config value is refused before any input is opened, with no traceback."""

    @pytest.mark.parametrize("text, key", [
        ('{"execution_timeout_s": NaN}', "execution_timeout_s"),
        ('{"fewshot_store_path": 3}', "fewshot_store_path"),
        ('{"descriptions_path": 7}', "descriptions_path"),
        ('{"workers": true}', "workers"),
        ('{"sample_k": 2.7}', "sample_k"),
        ('{"generator_model": 5}', "generator_model"),
        ('{"result_precision": 6}', "result_precision"),
        ('{"max_tokens": 2048}', "max_tokens"),
    ])
    def test_in_a_config_file(self, tmp_path, capsys, text, key):
        # neither the database nor the replay fixture exists: the config loads first
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        assert main(["ask", "--db", str(tmp_path / "none.sqlite"), "--question", "q",
                     "--replay", str(tmp_path / "none.jsonl"), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"error: {config}: bad config")
        assert key in err.splitlines()[-1]
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, key", [
        ("build-fewshot-store --dataset {dataset} --out {out} --sample-k -1", "sample_k"),
        ("run --dataset {dataset} --replay {fixture} --out {out} --workers 0", "workers"),
    ])
    def test_in_a_flag(self, cli_env, tmp_path, capsys, command, key):
        out = tmp_path / "out.jsonl"
        assert main(command.format(out=out, **cli_env).split()) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"error: bad config value for {key}: ")
        assert "Traceback" not in err
        assert not out.exists()


class TestBuildFewshotStore:
    def test_offline_store(self, cli_env, tmp_path, capsys):
        out = tmp_path / "store.jsonl"
        rc = main(["build-fewshot-store", "--dataset", cli_env["dataset"],
                   "--limit", "3", "--out", str(out)])
        assert rc == 0
        assert "wrote 3 examples" in capsys.readouterr().out
        assert out.is_file()

    def test_config_and_sample_k_shape_the_schema_texts(self, cli_env, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"category_threshold": 3, "sample_k": 1}))

        def schema_text(fmt, *extra):
            out = tmp_path / "store.jsonl"
            assert main(["build-fewshot-store", "--dataset", cli_env["dataset"],
                         "--limit", "1", "--format", fmt, "--out", str(out), *extra]) == 0
            return FewShotStore.load(out).examples[0].schema_text

        categories = "Value examples: ['Alice', 'Bob', 'Cara', 'Dan']"
        assert categories in schema_text("mac")
        assert categories not in schema_text("mac", "--config", str(config))
        assert "(name:TEXT, Examples: [Alice])" in schema_text(
            "compact_tagged", "--config", str(config))
        assert "(name:TEXT, Examples: [Alice, Bob, Cara])" in schema_text(
            "compact_tagged", "--config", str(config), "--sample-k", "3")
        capsys.readouterr()

    def test_config_may_name_the_store_being_built(self, cli_env, tmp_path, capsys):
        # the file at --out is no store at all; building over it must not load it
        out = tmp_path / "store.jsonl"
        out.write_text("not a store\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fewshot_store_path": str(out)}), encoding="utf-8")
        assert main(["build-fewshot-store", "--dataset", cli_env["dataset"], "--limit", "2",
                     "--config", str(config), "--out", str(out)]) == 0
        assert "wrote 2 examples" in capsys.readouterr().out
        assert FewShotStore.load(out).embeddings.shape == (2, 64)

    @pytest.mark.parametrize("flags", [["--record", "FIXTURE"], ["--replay", "FIXTURE"],
                                       ["--live"]], ids=["record", "replay", "live"])
    def test_backend_flags_are_rejected(self, cli_env, tmp_path, flags, capsys):
        # the store embeds locally, so the command has no model to reach
        fixture, out = tmp_path / "fixture.jsonl", tmp_path / "store.jsonl"
        flags = [str(fixture) if flag == "FIXTURE" else flag for flag in flags]
        with pytest.raises(SystemExit) as exit_info:
            main(["build-fewshot-store", "--dataset", cli_env["dataset"], "--out", str(out),
                  *flags])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not fixture.exists() and not out.exists()


class TestSweep:
    def test_replayed_single_entry_pool(self, cli_env, capsys):
        # compact-tagged table-filtered prompts equal the unfiltered ones here
        # (the scripted linker keeps every table), so the fixture covers them
        rc = main(["sweep", "--dataset", cli_env["dataset"], "--limit", "2",
                   "--replay", cli_env["fixture"],
                   "--formats", "compact_tagged", "--levels", "none", "--n", "2"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "1 combinations of size 2" in stdout
        assert "ex 1.0000  compact_tagged+no_filtering, compact_tagged+no_filtering" in stdout

    def test_replays_a_run_fixture_with_linking(self, cli_env, capsys, caplog):
        # sweep makes run's linker and generation requests, so run's fixture
        # serves every level of a format the run filtered
        with caplog.at_level("WARNING"):
            rc = main(["sweep", "--dataset", cli_env["dataset"],
                       "--replay", cli_env["fixture"],
                       "--formats", "compact_tagged",
                       "--levels", "none,table_only,full_filtering", "--n", "2",
                       "--linker-model", "gpt-4o"])
        assert rc == 0
        assert "6 combinations of size 2" in capsys.readouterr().out
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == []

    def test_replays_a_run_fixture_recorded_with_descriptions(self, cli_env, described_env,
                                                              capsys, caplog):
        with caplog.at_level("WARNING"):
            rc = main(["sweep", "--dataset", cli_env["dataset"],
                       "--config", described_env["config"],
                       "--replay", described_env["fixture"],
                       "--formats", "commented_tuples", "--levels", "none,full_filtering"])
        assert rc == 0
        assert "6 combinations of size 5" in capsys.readouterr().out
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == []


# the commands that walk a dataset with run_questions, each with a line of its
# output on the toy dataset: link-eval and a sweep that run's fixture serves
DATASET_COMMANDS = {
    "link-eval": (["link-eval"], f"questions scored: {len(TOY_BENCH)} (skipped 0)"),
    "sweep": (["sweep", "--formats", "compact_tagged", "--levels",
               "none,table_only,full_filtering", "--n", "2", "--linker-model", "gpt-4o"],
              "6 combinations of size 2"),
}


class TestDatasetLoop:
    @pytest.fixture(scope="class")
    def broken_dataset(self, tmp_path_factory):
        """The toy dataset with a third question on a file that is not SQLite."""
        root = write_toy_dataset(tmp_path_factory.mktemp("broken"))
        bad = root / "dev_databases" / "bad"
        bad.mkdir()
        (bad / "bad.sqlite").write_bytes(b"not a database " * 100)
        questions = json.loads((root / "dev.json").read_text(encoding="utf-8"))
        # the reference reads no table, so it runs even on that file, and sweep
        # does not skip the question
        questions.insert(2, {"question_id": 99, "db_id": "bad",
                             "question": TOY_BENCH[0]["question"], "SQL": "SELECT 1"})
        (root / "dev.json").write_text(json.dumps(questions), encoding="utf-8")
        return str(root)

    @pytest.mark.parametrize("command", DATASET_COMMANDS)
    def test_an_unreadable_database_fails_only_its_question(
        self, cli_env, broken_dataset, command, capsys
    ):
        argv, line = DATASET_COMMANDS[command]
        argv = [*argv, "--replay", cli_env["fixture"]]
        assert main([*argv, "--dataset", cli_env["dataset"]]) == 0
        scored = capsys.readouterr().out
        assert line in scored
        assert main([*argv, "--dataset", broken_dataset]) == 1
        out, err = capsys.readouterr()
        # the other questions score as they do without it
        assert out == scored + "questions failed: 1\n"
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1
        assert re.fullmatch(r"error: .*not a database.* \(question 99\)", errors[0])

    def test_the_last_progress_line_counts_as_the_report(
        self, cli_env, broken_dataset, capsys
    ):
        assert main(["run", "--dataset", broken_dataset, "--replay", cli_env["fixture"],
                     "--workers", "2"]) == 0
        out, err = capsys.readouterr()
        n = len(TOY_BENCH) + 1
        assert out.startswith(f"items: {n} (scored {n - 1}, reference failures 0, errors 1)")
        progress = [line for line in err.splitlines() if " questions, EX " in line]
        ex, scored, calls, dollars = re.fullmatch(
            rf"{n}/{n} questions, EX (\S+) over (\d+) scored,"
            r" (\S+) calls and \$(\S+) per question", progress[-1],
        ).groups()
        table = out.splitlines()
        row = table[table.index(next(line for line in table if line.startswith("EX "))) + 1]
        cells = [cell.strip() for cell in row.split("|")]
        assert (cells[0], cells[1].split("(")[1].rstrip(")"), cells[3]) == (ex, calls, dollars)
        assert scored == str(n - 1)

    @pytest.mark.parametrize("command", DATASET_COMMANDS)
    def test_workers_do_not_change_the_output(self, cli_env, command, tmp_path, capsys):
        argv, line = DATASET_COMMANDS[command]
        outputs = []
        for workers in (1, 4):
            config = tmp_path / f"workers{workers}.json"
            config.write_text(json.dumps({"workers": workers}), encoding="utf-8")
            assert main([*argv, "--dataset", cli_env["dataset"], "--replay", cli_env["fixture"],
                         "--config", str(config)]) == 0
            outputs.append(capsys.readouterr().out)
        assert line in outputs[0]
        assert outputs[0] == outputs[1]

    def test_an_unreadable_database_leaves_only_its_question_out_of_the_store(
        self, cli_env, broken_dataset, tmp_path, capsys
    ):
        clean, broken = tmp_path / "clean.jsonl", tmp_path / "broken.jsonl"
        assert main(["build-fewshot-store", "--dataset", cli_env["dataset"],
                     "--out", str(clean)]) == 0
        capsys.readouterr()
        assert main(["build-fewshot-store", "--dataset", broken_dataset,
                     "--out", str(broken)]) == 1
        out, err = capsys.readouterr()
        assert broken.read_bytes() == clean.read_bytes()
        assert out == f"wrote {len(TOY_BENCH)} examples to {broken}\nquestions failed: 1\n"
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1
        assert re.fullmatch(r"error: .*not a database.* \(question 99\)", errors[0])

    def test_workers_do_not_change_the_store(self, cli_env, tmp_path, capsys):
        stores = []
        for workers in (1, 4):
            config, out = tmp_path / f"workers{workers}.json", tmp_path / f"store{workers}.jsonl"
            config.write_text(json.dumps({"workers": workers}), encoding="utf-8")
            assert main(["build-fewshot-store", "--dataset", cli_env["dataset"],
                         "--config", str(config), "--out", str(out)]) == 0
            stores.append(out.read_bytes())
        capsys.readouterr()
        assert stores[0] == stores[1]
        assert len(stores[0].splitlines()) == len(TOY_BENCH)


class TestFewShotStorePlumbing:
    @pytest.fixture()
    def store(self, cli_env, tmp_path, capsys):
        out = tmp_path / "store.jsonl"
        assert main(["build-fewshot-store", "--dataset", cli_env["dataset"],
                     "--limit", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_store_examples_reach_every_generation_prompt(self, cli_env, store, via, tmp_path,
                                                          monkeypatch, capsys):
        backend = ScriptedBackend(ToyScript())
        monkeypatch.setattr(cli, "_live_backend", lambda: backend)
        if via == "flag":
            source = ["--fewshot-store", str(store)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"fewshot_store_path": str(store)}), encoding="utf-8")
            source = ["--config", str(config)]
        assert main(["run", "--dataset", cli_env["dataset"], "--limit", "2", "--live",
                     *source]) == 0
        capsys.readouterr()
        # fewshot_k is 3, so each prompt shows the whole three-example store
        shots = {f"```sql\n{example.sql}\n```" for example in FewShotStore.load(store).examples}
        system = load_generation_system_prompt()
        prompts = [r.messages for r in backend.requests if r.messages[0]["content"] == system]
        assert len(prompts) == 2 * 5
        for messages in prompts:
            assert {m["content"] for m in messages if m["role"] == "assistant"} == shots

    def test_retrieval_is_no_metered_call(self, cli_env, store, tmp_path, monkeypatch,
                                          capsys, caplog):
        monkeypatch.setattr(cli, "_live_backend", lambda: ScriptedBackend(ToyScript()))
        out = tmp_path / "records.jsonl"
        with caplog.at_level("WARNING"):
            assert main(["run", "--dataset", cli_env["dataset"], "--limit", "2", "--live",
                         "--fewshot-store", str(store), "--out", str(out)]) == 0
        capsys.readouterr()
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == []
        usage = {
            record.question_id: [
                (row.model, row.stage, row.calls, row.input_tokens, row.output_tokens)
                for row in record.usage
            ]
            for record in read_records(out)
        }
        # only the linker and generation calls, with the few-shots in their prompts
        assert usage == {
            "1": [("gemini-1.5-flash", "generation", 5, 6877, 45),
                  ("gemini-1.5-pro", "linking", 1, 539, 43),
                  ("gpt-4o", "linking", 2, 1150, 86)],
            "2": [("gemini-1.5-flash", "generation", 5, 6881, 44),
                  ("gemini-1.5-pro", "linking", 1, 540, 43),
                  ("gpt-4o", "linking", 2, 1152, 86)],
        }
