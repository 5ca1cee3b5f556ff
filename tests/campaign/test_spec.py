"""Campaign spec compilation: grid expansion, digests, errors."""

from __future__ import annotations

import json

import pytest

from repro.api import ExperimentSpec
from repro.campaign.spec import (
    GRID_AXES,
    CampaignCell,
    campaign_from_mapping,
    cell_cost,
    cell_digest,
    digest_preimage,
    load_campaign,
)
from repro.errors import ReproError


class TestExpansion:
    def test_scalar_axes_one_cell(self):
        spec = campaign_from_mapping({
            "name": "one",
            "experiments": [{"name": "lemma7", "trials": 3, "seed": 7}],
        })
        assert len(spec.cells) == 1
        cell = spec.cells[0]
        assert cell.experiment == "lemma7"
        assert cell.spec.trials == 3
        assert cell.spec.seed == 7
        assert cell.spec.jobs == 1

    def test_list_axes_cartesian_product(self, tiny_campaign):
        # lemma7 x seeds {1,2} + baseline_2d x seed 1
        assert [(c.experiment, c.spec.seed)
                for c in tiny_campaign.cells] == [
            ("lemma7", 1), ("lemma7", 2), ("baseline_2d", 1)]
        assert [c.index for c in tiny_campaign.cells] == [0, 1, 2]

    def test_defaults_merge_and_entry_override(self):
        spec = campaign_from_mapping({
            "name": "d",
            "defaults": {"trials": 5, "seed": [0, 1]},
            "experiments": [
                {"name": "lemma7"},
                {"name": "baseline_2d", "seed": 9},
            ],
        })
        assert [(c.experiment, c.spec.trials, c.spec.seed)
                for c in spec.cells] == [
            ("lemma7", 5, 0), ("lemma7", 5, 1), ("baseline_2d", 5, 9)]

    def test_axis_order_is_grid_axes_order(self):
        spec = campaign_from_mapping({
            "name": "o",
            "experiments": [{"name": "lemma7", "trials": [1, 2],
                             "seed": [5, 6]}],
        })
        # trials varies slowest (earlier in GRID_AXES than seed)
        assert GRID_AXES.index("trials") < GRID_AXES.index("seed")
        assert [(c.spec.trials, c.spec.seed) for c in spec.cells] == [
            (1, 5), (1, 6), (2, 5), (2, 6)]


class TestErrors:
    def test_unknown_experiment(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            campaign_from_mapping({
                "name": "x",
                "experiments": [{"name": "theorem99"}],
            })

    def test_jobs_is_not_an_axis(self):
        with pytest.raises(ReproError, match="not a campaign axis"):
            campaign_from_mapping({
                "name": "x",
                "experiments": [{"name": "lemma7", "jobs": 4}],
            })

    def test_backend_is_not_an_axis(self):
        with pytest.raises(ReproError, match="unknown keys: backend"):
            campaign_from_mapping({
                "name": "x",
                "experiments": [{"name": "lemma7", "backend": "numpy"}],
            })

    def test_unknown_entry_key(self):
        with pytest.raises(ReproError, match="unknown keys"):
            campaign_from_mapping({
                "name": "x",
                "experiments": [{"name": "lemma7", "pattern": "cube"}],
            })

    def test_missing_experiments(self):
        with pytest.raises(ReproError, match="non-empty"):
            campaign_from_mapping({"name": "x"})

    def test_empty_axis_list(self):
        with pytest.raises(ReproError, match="empty list"):
            campaign_from_mapping({
                "name": "x",
                "experiments": [{"name": "lemma7", "seed": []}],
            })

    def test_unknown_top_level_key(self):
        with pytest.raises(ReproError, match="unknown campaign keys"):
            campaign_from_mapping({
                "name": "x", "workers": 4,
                "experiments": [{"name": "lemma7"}],
            })


class TestLoading:
    def test_json_file(self, spec_file):
        spec = load_campaign(spec_file)
        assert spec.name == "tiny"
        assert len(spec.cells) == 3
        assert spec.source == str(spec_file)

    def test_toml_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "c.toml"
        path.write_text(
            'name = "t"\n\n[[experiment]]\nname = "lemma7"\n'
            "trials = 2\nseed = [1, 2]\n", encoding="utf-8")
        spec = load_campaign(path)
        assert spec.name == "t"
        assert [c.spec.seed for c in spec.cells] == [1, 2]

    def test_repo_examples_parse(self):
        pytest.importorskip("tomllib")
        from pathlib import Path
        examples = Path(__file__).resolve().parents[2] / "examples"
        paper = load_campaign(examples / "paper.toml")
        assert len(paper.cells) >= 10
        smoke = load_campaign(examples / "campaign-smoke.toml")
        assert len(smoke.cells) == 4

    @pytest.mark.parametrize("field, value", [
        ("trials", -1), ("trials", "x"), ("seed", -3), ("cache", 1)])
    def test_malformed_spec_values_fail_to_load(self, tmp_path, field,
                                                value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "name": "bad",
            "experiments": [{"name": "lemma7", field: value}],
        }), encoding="utf-8")
        with pytest.raises(ReproError, match=f"spec '{field}'"):
            load_campaign(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            load_campaign(tmp_path / "nope.toml")

    def test_bad_suffix(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("name: x\n", encoding="utf-8")
        with pytest.raises(ReproError, match="toml or .json"):
            load_campaign(path)


class TestDigest:
    def test_stable_across_equal_cells(self):
        a = CampaignCell("lemma7", ExperimentSpec(trials=2, seed=1), 0)
        b = CampaignCell("lemma7", ExperimentSpec(trials=2, seed=1), 5)
        assert cell_digest(a) == cell_digest(b)  # index is not identity

    def test_differs_by_seed_and_experiment(self):
        base = CampaignCell("lemma7", ExperimentSpec(trials=2, seed=1), 0)
        other_seed = CampaignCell(
            "lemma7", ExperimentSpec(trials=2, seed=2), 0)
        other_exp = CampaignCell(
            "baseline_2d", ExperimentSpec(trials=2, seed=1), 0)
        digests = {cell_digest(base), cell_digest(other_seed),
                   cell_digest(other_exp)}
        assert len(digests) == 3

    def test_jobs_excluded_from_preimage(self):
        inline = CampaignCell(
            "lemma7", ExperimentSpec(trials=2, seed=1, jobs=1), 0)
        pooled = CampaignCell(
            "lemma7", ExperimentSpec(trials=2, seed=1, jobs=4), 0)
        assert cell_digest(inline) == cell_digest(pooled)
        assert "jobs" not in digest_preimage(inline)["spec"]

    def test_preimage_resolves_default_trials(self):
        # trials=None resolves to the driver default, so an explicit
        # spec equal to the default digests identically.
        implicit = CampaignCell(
            "lemma7", ExperimentSpec(trials=None, seed=1), 0)
        preimage = digest_preimage(implicit)
        assert preimage["spec"]["trials"] is not None
        explicit = CampaignCell(
            "lemma7",
            ExperimentSpec(trials=preimage["spec"]["trials"], seed=1), 0)
        assert cell_digest(implicit) == cell_digest(explicit)

    def test_preimage_is_canonical_jsonable(self):
        cell = CampaignCell("lemma7", ExperimentSpec(trials=2, seed=1), 0)
        preimage = digest_preimage(cell)
        round_tripped = json.loads(json.dumps(preimage, default=str))
        assert round_tripped["experiment"] == "lemma7"
        assert round_tripped["kind"] == "campaign-cell"


class TestCost:
    def test_scales_with_trials(self):
        small = CampaignCell("lemma7", ExperimentSpec(trials=2, seed=1), 0)
        large = CampaignCell("lemma7", ExperimentSpec(trials=20, seed=1), 0)
        assert cell_cost(large) == 10 * cell_cost(small)

    def test_orders_experiments_by_weight(self):
        sweep = CampaignCell(
            "theorem11", ExperimentSpec(trials=1, seed=1), 0)
        quick = CampaignCell("lemma7", ExperimentSpec(trials=1, seed=1), 0)
        assert cell_cost(sweep) > cell_cost(quick)
