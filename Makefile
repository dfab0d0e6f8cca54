# Development targets. Everything runs from the repository root with the
# in-tree sources on PYTHONPATH; no installation required.

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test bench bench-gate bench-serving load-smoke scale-smoke perfbench coverage docs-check examples lint all

## Tier-1 test suite (fast; what CI gates on).
test:
	$(PYTHON) -m pytest -x -q tests

## Figure-regeneration benchmarks (laptop scale, writes benchmarks/results/).
bench:
	$(PYTHON) -m pytest -q benchmarks

## Benchmark gate: re-run fig8/fig9 at smoke scale and fail on construction
## regressions (>25% over budget) or probability drift (>1e-9) against the
## committed baseline in benchmarks/results/bench_gate_baseline.json.
bench-gate:
	$(PYTHON) scripts/bench_gate.py

## Serving benchmark: closed/open-loop HTTP load over a loopback server,
## recorded to benchmarks/results/serving_http.csv.
bench-serving:
	$(PYTHON) scripts/bench_serving.py

## Load smoke: hammer the HTTP server and fail on any 5xx, a blown p95
## bound, or a non-monotonic /v1/stats counter (what the CI job runs).
load-smoke:
	$(PYTHON) scripts/load_smoke.py

## Scale smoke: build a 10^5-tuple DBLP MVDB on the sqlite backend, compile
## the MV-index, answer one fig-5 query end-to-end, and fail on a >2x
## normalized wall-time regression against the committed baseline in
## benchmarks/results/scale_smoke_baseline.json.
scale-smoke:
	$(PYTHON) scripts/scale_smoke.py

## Repository benchmark (contract in BENCHMARK.json): both workloads,
## untraced, seed 1.  For another seed call perfbench/run.py directly.
perfbench:
	set -e; for workload in range-cold serve-mixed; do \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 1 --seconds 40 --trace 0; \
	done

## Coverage gate (CI): needs pytest-cov; the fail-under floor lives in
## pyproject.toml [tool.coverage.report].
coverage:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term-missing:skip-covered tests

## Documentation checks: every python block in README.md, docs/api.md,
## docs/serving.md and docs/architecture.md must run (with
## DeprecationWarning as an error), and the documented modules must render
## under pydoc.
docs-check:
	$(PYTHON) scripts/check_readme.py README.md docs/api.md docs/serving.md docs/architecture.md

## Run every example end-to-end on the facade; a DeprecationWarning leaking
## from the facade's own code paths is an error.
examples:
	set -e; for example in examples/*.py; do \
		echo "== $$example"; \
		$(PYTHON) -W error::DeprecationWarning $$example 4; \
	done

## Lint (configuration in pyproject.toml [tool.ruff]).
lint:
	ruff check src tests benchmarks scripts examples

all: test lint bench bench-gate docs-check examples
