import json

import pytest

from ensql.catalog import introspect
from ensql.cli import main
from ensql.formats import RepresentationFormat, render
from ensql.gateway import RecordingChatBackend
from ensql.harness import load_dataset, read_records, run_benchmark
from ensql.config import PipelineConfig

from helpers import ScriptedBackend, TOY_BENCH, ToyScript, write_toy_dataset


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """A toy dataset plus a replay fixture recorded from one scripted run."""
    root = tmp_path_factory.mktemp("cli")
    dataset = write_toy_dataset(root / "data")
    fixture = root / "fixture.jsonl"
    items = load_dataset(dataset)
    run_benchmark(
        PipelineConfig.default(),
        items,
        RecordingChatBackend(ScriptedBackend(ToyScript()), fixture),
        workers=1,
        record_timing=False,
    )
    return {
        "dataset": str(dataset),
        "fixture": str(fixture),
        "db": str(dataset / "dev_databases" / "toy_shop" / "toy_shop.sqlite"),
    }


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

    def test_replay_is_deterministic(self, cli_env, tmp_path, capsys):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        for out in (out_a, out_b):
            assert main(["run", "--dataset", cli_env["dataset"],
                         "--replay", cli_env["fixture"], "--out", str(out)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()


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


class TestBuildFewshotStore:
    def test_offline_store(self, cli_env, tmp_path, capsys):
        out = tmp_path / "store.jsonl"
        rc = main(["build-fewshot-store", "--dataset", cli_env["dataset"],
                   "--limit", "3", "--out", str(out)])
        assert rc == 0
        assert "wrote 3 examples" in capsys.readouterr().out
        assert out.is_file()

    def test_embedding_model_requires_live(self, cli_env, tmp_path, capsys):
        rc = main(["build-fewshot-store", "--dataset", cli_env["dataset"],
                   "--out", str(tmp_path / "s.jsonl"),
                   "--embedding-model", "text-embedding-3-small"])
        assert rc == 1
        assert "--embedding-model needs --live" in capsys.readouterr().err


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
