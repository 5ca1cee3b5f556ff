PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint reprolint typecheck bench bench-smoke bench-smoke-json bench-gate bench-json trace-smoke campaign-smoke serve-smoke profile

test:
	$(PYTHON) -m pytest -q

# Lint = general style (ruff, best-effort: ships via the `lint` extra
# and is not part of the runtime image, so that half degrades to a
# no-op with a notice) + domain invariants (reprolint, pure stdlib,
# always enforced; see docs/STATIC_ANALYSIS.md).
lint: reprolint
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	elif command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed (pip install -e .[lint]); skipping lint"; \
	fi

reprolint:
	$(PYTHON) -m repro.lint src benchmarks

# Type check the strictly-annotated subset (lint framework + geometry
# core + the repro.api/campaign/serve facades).  mypy comes from the
# `lint` extra; degrade politely without it.
typecheck:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro/lint src/repro/geometry \
			src/repro/api.py src/repro/campaign src/repro/serve; \
	else \
		echo "mypy not installed (pip install -e .[lint]); skipping typecheck"; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks --benchmark-only

# Fast correctness pass over the detection benchmarks (including the
# n=4096 swarm point), one batched swarm round, and one 3-cell inline
# campaign: runs each benchmarked callable once with timing disabled.
bench-smoke:
	$(PYTHON) -m pytest benchmarks \
		-k "detection or (swarm_round_scaling and 256) \
		or campaign_smoke_warm" \
		--benchmark-disable -q

# CI artifact: one quick timed pass over the same benchmarks,
# condensed to bench-smoke.json at the repo root.
# (--benchmark-disable produces no JSON, so this uses minimal rounds.)
bench-smoke-json:
	$(PYTHON) benchmarks/run_benchmarks.py --output bench-smoke.json \
		--select "benchmarks/bench_scaling.py \
		benchmarks/bench_campaign.py \
		-k 'detection or (swarm_round_scaling and 256) \
		or campaign_smoke_warm' \
		--benchmark-min-rounds=1 --benchmark-max-time=0.1 \
		--benchmark-warmup=off"

# Regression gate over the bench-smoke.json just measured: every
# benchmark shared with the committed baseline must stay within
# 1.5x of it, after dividing out the machine-speed factor measured
# on the reference benchmark (see benchmarks/check_regression.py).
BENCH_BASELINE ?= BENCH_2026-08-08-smoke-baseline.json
bench-gate:
	$(PYTHON) benchmarks/check_regression.py bench-smoke.json \
		$(BENCH_BASELINE) --threshold 1.5 \
		--reference "test_detection_scaling[64]"

bench-json:
	$(PYTHON) benchmarks/run_benchmarks.py

# Where does the paper's Compute go?  cProfile over one batched
# psi_PF round from a generic swarm of 128 robots with random frames
# into a regular 128-gon (the swarm benchmark's pf_ngon128 shape), top
# 20 by cumulative time: symmetry detection (gamma(P), gamma(F) in the
# embedding, gamma(F~) for the matching) leads, then the embedding and
# the matching; local views cost one per orbit.  (Any
# repro.robots.model.Observation frames in the hot path mean the
# batched engine fell back.)
profile:
	$(PYTHON) benchmarks/profile_round.py --n 128 --top 20

# Campaign smoke: the CI grid (2 experiments x 2 seeds) on the process
# pool, resumed once (must skip every cell), then re-run serially into
# a second store — the canonical exports must be byte-identical.
campaign-smoke:
	rm -rf .repro-campaign-smoke
	$(PYTHON) -m repro.cli campaign run examples/campaign-smoke.toml \
		--jobs 4 --store .repro-campaign-smoke/pool.jsonl
	$(PYTHON) -m repro.cli campaign run examples/campaign-smoke.toml \
		--jobs 4 --store .repro-campaign-smoke/pool.jsonl \
		| grep -q "executed:  0"
	$(PYTHON) -m repro.cli campaign run examples/campaign-smoke.toml \
		--jobs 1 --store .repro-campaign-smoke/serial.jsonl > /dev/null
	diff .repro-campaign-smoke/pool.jsonl \
		.repro-campaign-smoke/serial.jsonl
	@echo "campaign-smoke: pool and serial stores byte-identical"

# Service smoke: boot `repro serve` as a subprocess, fire a mixed
# burst of cold/warm/concurrent queries at it, and pin the contract —
# responses byte-identical to direct repro.api evaluation, warm
# throughput at least 2x cold, coalesce + cache counters visible in
# /v1/metrics, SIGTERM drains to exit 0 (see docs/SERVICE.md).
serve-smoke:
	$(PYTHON) benchmarks/bench_serve.py --smoke

# Observability smoke: one small experiment through the repro.api
# façade, emitting all three schema-versioned artifacts (JSONL span
# trace, metrics snapshot, run manifest) at the repo root.
trace-smoke:
	$(PYTHON) -m repro.cli experiment lemma7 --trials 2 \
		--trace trace-smoke.jsonl --metrics metrics-smoke.json \
		--manifest manifest-smoke.json > /dev/null
	@$(PYTHON) -c "import json; \
		lines = open('trace-smoke.jsonl').read().splitlines(); \
		header = json.loads(lines[0]); \
		assert header['kind'] == 'trace-header', header; \
		manifest = json.load(open('manifest-smoke.json')); \
		assert manifest['kind'] == 'run-manifest', manifest; \
		metrics = json.load(open('metrics-smoke.json')); \
		assert metrics['kind'] == 'metrics-snapshot', metrics; \
		print(f'trace-smoke: {len(lines) - 1} spans, ' \
		      f'{manifest[\"rows\"][\"count\"]} rows, ' \
		      f'{len(metrics[\"counters\"])} counters')"
