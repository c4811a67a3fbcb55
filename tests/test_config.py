import dataclasses
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from ensql.catalog import FilterLevel
from ensql.config import (
    ConfigError,
    DEFAULT_GENERATOR_MODEL,
    DEFAULT_JUDGE_MODEL,
    DEFAULT_LINKER_PRIMARY,
    DEFAULT_LINKER_SECONDARY,
    PipelineConfig,
)
from ensql.formats import RepresentationFormat
from ensql.generation import CandidateSpec
from ensql.harness import BenchmarkItem, PipelineRunner
from ensql.linking import load_linking_system_prompt

from helpers import ScriptedBackend, TOY_BENCH, ToyScript

README = Path(__file__).parent.parent / "README.md"


def _run_default_slate(toy_db):
    """The requests one run_item of the default slate sends, by stage."""
    backend = ScriptedBackend(ToyScript())
    item = BenchmarkItem("1", "toy_shop", TOY_BENCH[0]["question"], TOY_BENCH[0]["gold"],
                         db_path=toy_db)
    with PipelineRunner(PipelineConfig.default(), backend) as runner:
        record = runner.run_item(item)
    linking_system = load_linking_system_prompt()
    linker = [r for r in backend.requests if r.messages[0]["content"] == linking_system]
    generation = [r for r in backend.requests if r.messages[0]["content"] != linking_system]
    return record, linker, generation


class TestDefaultSlate:
    def test_five_slots(self):
        config = PipelineConfig.default()
        assert [
            (e.format, e.filter_level, e.linker_model) for e in config.specs
        ] == [
            (RepresentationFormat.COMMENTED_TUPLES, FilterLevel.NO_FILTERING, None),
            (RepresentationFormat.COMMENTED_TUPLES, FilterLevel.FULL_FILTERING,
             DEFAULT_LINKER_PRIMARY),
            (RepresentationFormat.COMPACT_TAGGED, FilterLevel.TABLE_ONLY,
             DEFAULT_LINKER_PRIMARY),
            (RepresentationFormat.COMPACT_TAGGED, FilterLevel.FULL_FILTERING,
             DEFAULT_LINKER_PRIMARY),
            (RepresentationFormat.DDL, FilterLevel.FULL_FILTERING,
             DEFAULT_LINKER_SECONDARY),
        ]

    def test_models(self):
        config = PipelineConfig.default()
        assert config.generator_model == DEFAULT_GENERATOR_MODEL == "gemini-1.5-flash"
        assert config.judge_model == DEFAULT_JUDGE_MODEL == "gemini-1.5-flash"
        assert DEFAULT_LINKER_PRIMARY == "gpt-4o"
        assert DEFAULT_LINKER_SECONDARY == "gemini-1.5-pro"

    def test_three_distinct_linker_calls(self, toy_db):
        # slots 2 and 3 (compact tagged, gpt-4o) consume the same prediction
        _, linker, _ = _run_default_slate(toy_db)
        assert len(linker) == 3
        assert Counter(r.model for r in linker) == {"gpt-4o": 2, "gemini-1.5-pro": 1}

    def test_spec_indices_and_generator(self, toy_db):
        # the vote settles this question, so every other request generates
        record, _, generation = _run_default_slate(toy_db)
        assert [c.spec_index for c in record.candidates] == [0, 1, 2, 3, 4]
        assert len(generation) == 5
        assert {r.model for r in generation} == {"gemini-1.5-flash"}

    def test_default_linker_is_the_first_slate_linker(self):
        config = PipelineConfig.default()
        assert config.default_linker() == DEFAULT_LINKER_PRIMARY
        config.specs = config.specs[4:]
        assert config.default_linker() == DEFAULT_LINKER_SECONDARY
        config.specs = [CandidateSpec(RepresentationFormat.DDL, FilterLevel.NO_FILTERING)]
        assert config.default_linker() == DEFAULT_LINKER_PRIMARY

    def test_judge_schema_format(self):
        assert PipelineConfig.default().judge_schema_format is RepresentationFormat.INLINE_TABLES


class TestFromDict:
    def test_round_trip_of_overrides(self):
        config = PipelineConfig.from_dict(
            {
                "generator_model": "o3-mini",
                "fewshot_k": 0,
                "execution_timeout_s": 5,
                "judge_schema_format": "ddl",
            }
        )
        assert config.generator_model == "o3-mini"
        assert config.fewshot_k == 0
        assert config.execution_timeout_s == 5.0
        assert config.judge_schema_format is RepresentationFormat.DDL
        assert len(config.specs) == 5  # untouched default slate

    def test_custom_specs_with_aliases(self):
        config = PipelineConfig.from_dict(
            {
                "specs": [
                    {"format": "mschema", "filter_level": "none"},
                    {"format": "mac", "filter_level": "full_filtering",
                     "linker_model": "gpt-4o"},
                ],
                "confidence_rules": {"2": [[1, 1]]},
            }
        )
        assert config.specs[0] == CandidateSpec(
            RepresentationFormat.COMPACT_TAGGED, FilterLevel.NO_FILTERING
        )
        assert config.specs[1].linker_model == "gpt-4o"

    def test_unknown_keys_named(self):
        with pytest.raises(ConfigError, match="generator_mode, judg"):
            PipelineConfig.from_dict({"generator_mode": "x", "judg": "y"})

    def test_unknown_spec_entry_key(self):
        with pytest.raises(ConfigError, match="unknown spec entry keys: modle"):
            PipelineConfig.from_dict(
                {"specs": [{"format": "ddl", "filter_level": "none", "modle": "x"}]}
            )

    def test_missing_spec_field(self):
        with pytest.raises(ConfigError, match="missing filter_level"):
            PipelineConfig.from_dict({"specs": [{"format": "ddl"}]})

    def test_bad_format_name(self):
        with pytest.raises(ConfigError, match="unknown"):
            PipelineConfig.from_dict(
                {"specs": [{"format": "parquet", "filter_level": "none"}]}
            )

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            PipelineConfig.from_dict([1, 2])

    def test_bad_numeric_value(self):
        with pytest.raises(ConfigError, match="bad config value"):
            PipelineConfig.from_dict({"fewshot_k": "lots"})

    def test_readme_configuration_block_is_the_default_slate(self):
        section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        config = PipelineConfig.from_dict(json.loads(block))
        assert config.specs == PipelineConfig.default().specs
        assert set(json.loads(block)) == {f.name for f in dataclasses.fields(PipelineConfig)}


class TestValidate:
    def _one_spec_config(self, **kwargs):
        config = PipelineConfig.default()
        for key, value in kwargs.items():
            setattr(config, key, value)
        return config

    def test_filtered_spec_needs_linker(self):
        config = self._one_spec_config()
        config.specs[1] = CandidateSpec(
            RepresentationFormat.DDL, FilterLevel.FULL_FILTERING, None
        )
        with pytest.raises(ConfigError, match="spec 1.*requires a linker model"):
            config.validate()

    def test_unfiltered_spec_rejects_linker(self):
        config = self._one_spec_config()
        config.specs[0] = CandidateSpec(
            RepresentationFormat.DDL, FilterLevel.NO_FILTERING, "gpt-4o"
        )
        with pytest.raises(ConfigError, match="spec 0.*must not"):
            config.validate()

    def test_empty_slate_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            self._one_spec_config(specs=[]).validate()

    def test_uncovered_candidate_count_rejected(self):
        config = self._one_spec_config()
        config.specs = config.specs[:3]  # n=3 has no default escalation rules
        with pytest.raises(ConfigError, match="no confidence rules for 3"):
            config.validate()

    def test_custom_rules_cover_new_count(self):
        config = self._one_spec_config()
        config.specs = config.specs[:3]
        config.confidence_rules = {3: frozenset({(1, 1, 1)})}
        config.validate()
        assert len({s.linker_run for s in config.specs if s.linker_run}) == 2

    def test_bad_worker_counts(self):
        with pytest.raises(ConfigError):
            self._one_spec_config(workers=0).validate()
        with pytest.raises(ConfigError):
            self._one_spec_config(max_in_flight=0).validate()

    def test_bad_timeout(self):
        with pytest.raises(ConfigError):
            self._one_spec_config(execution_timeout_s=0).validate()

    def test_negative_fewshot_k(self):
        with pytest.raises(ConfigError):
            self._one_spec_config(fewshot_k=-1).validate()

    def test_empty_model_names(self):
        with pytest.raises(ConfigError):
            self._one_spec_config(generator_model="").validate()
        with pytest.raises(ConfigError):
            self._one_spec_config(judge_model="").validate()


class TestConfidenceRulesParsing:
    def test_distributions_normalized(self):
        config = PipelineConfig.from_dict(
            {"confidence_rules": {"5": [[1, 2, 2], [5]]}}
        )
        assert config.confidence_rules == {5: frozenset({(2, 2, 1), (5,)})}

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="does not sum to 4"):
            PipelineConfig.from_dict({"confidence_rules": {"4": [[2, 1]]}})

    def test_a_group_below_one_vote_is_rejected(self):
        with pytest.raises(ConfigError, match=r"\[5\]: \[5, 0\] has a group under 1 vote"):
            PipelineConfig.from_dict({"confidence_rules": {"5": [[5, 0], [6, -1]]}})
        with pytest.raises(ConfigError, match=r"\[6, -1\] has a group under 1 vote"):
            PipelineConfig.from_dict({"confidence_rules": {"5": [[6, -1]]}})

    def test_non_integer_key_rejected(self):
        with pytest.raises(ConfigError, match="not an integer"):
            PipelineConfig.from_dict({"confidence_rules": {"five": [[5]]}})


class TestLoad:
    def test_load_json_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"workers": 2}), encoding="utf-8")
        assert PipelineConfig.load(path).workers == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            PipelineConfig.load(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            PipelineConfig.load(path)


# (key, its JSON text) pairs that a config must refuse, naming the key
_BAD_VALUES = [
    ("execution_timeout_s", "NaN"), ("execution_timeout_s", "Infinity"),
    ("execution_timeout_s", "-Infinity"), ("execution_timeout_s", "0"),
    ("execution_timeout_s", "-1.5"), ("execution_timeout_s", "true"),
    ("execution_timeout_s", '"30"'),
    ("fewshot_store_path", "3"), ("descriptions_path", "7"), ("price_table_path", "[]"),
    ("workers", "true"), ("sample_k", "2.7"), ("fewshot_k", '"3"'),
    ("max_in_flight", "1.0"), ("category_threshold", "null"),
    ("sample_k", "-1"), ("fewshot_k", "-1"), ("category_threshold", "-1"),
    ("workers", "0"), ("max_in_flight", "0"),
    ("generator_model", "5"), ("judge_model", "null"), ("generator_model", '""'),
    ("judge_schema_format", "5"),
]


class TestEveryValueIsChecked:
    """A bad value is refused, naming its key, however the config was made."""

    @pytest.mark.parametrize("key, text", _BAD_VALUES)
    def test_load_refuses_it(self, tmp_path, key, text):
        path = tmp_path / "config.json"
        path.write_text(f'{{"{key}": {text}}}', encoding="utf-8")
        with pytest.raises(ConfigError, match=f"config.json: bad config: bad config value for {key}"):
            PipelineConfig.load(path)

    @pytest.mark.parametrize("key, text", [
        (key, text) for key, text in _BAD_VALUES if key != "judge_schema_format"
    ])
    def test_validate_refuses_it_in_a_hand_built_config(self, key, text):
        config = dataclasses.replace(PipelineConfig.default(), **{key: json.loads(text)})
        with pytest.raises(ConfigError, match=f"bad config value for {key}"):
            config.validate()

    @pytest.mark.parametrize("key", ["result_precision", "max_tokens"])
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
            PipelineConfig.from_dict({key: 6})

    @pytest.mark.parametrize("linker", [5, "", ["gpt-4o"]])
    def test_a_filtering_spec_needs_a_linker_model_that_is_a_non_empty_string(self, linker):
        spec = {"format": "ddl", "filter_level": "full_filtering", "linker_model": linker}
        with pytest.raises(ConfigError, match="spec 0: full_filtering requires a linker model"):
            PipelineConfig.from_dict({"specs": [spec], "confidence_rules": {"1": [[1]]}})

    @pytest.mark.parametrize("dist", [[2.5, 2.5], [True, 4], ["3", 2], "5"])
    def test_rule_sizes_are_integers(self, dist):
        with pytest.raises(ConfigError, match="confidence_rules"):
            PipelineConfig.from_dict({"confidence_rules": {"5": [dist]}})

    def test_a_whole_number_timeout_is_kept(self):
        assert PipelineConfig.from_dict({"execution_timeout_s": 2}).execution_timeout_s == 2
