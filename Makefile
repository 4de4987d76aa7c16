# Convenience targets for the query-flocks reproduction.

PYTHON ?= python

.PHONY: install test stress golden bench bench-json bench-e2e bench-ab loc examples lint lint-flocks conlint clean outputs

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Full static gate: style, types, and the concurrency analyzer.
lint:
	$(PYTHON) -m ruff check src tests benchmarks examples
	$(PYTHON) -m mypy src/repro
	PYTHONPATH=src $(PYTHON) -m repro.analysis.conlint src/repro

# Just the concurrency lint (no third-party tools needed).
conlint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.conlint src/repro

# Failure-path suite: fault injection, retries, graceful degradation.
stress:
	$(PYTHON) -m pytest -m faults tests/

# Rewrite both goldens — only for a change meant to alter FILTER-step
# output (tests/golden/step_survivors.json) or a paper artifact
# (tests/golden/paper_artifacts.json); tests/golden/test_*.py pin them.
golden:
	PYTHONPATH=src $(PYTHON) -m tests.golden.step_survivors
	PYTHONPATH=src $(PYTHON) -m tests.golden.paper_artifacts

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Machine-readable sweeps: writes BENCH_parallel.json ((strategy,
# backend) x jobs: median/quartile ms over >=5 runs, survivors),
# BENCH_recovery.json (checkpoint overhead and warm-resume vs cold
# re-mine), and BENCH_optimizer.json ({optimized, dynamic} cells under
# the one UES join order: median/quartile ms over 7 runs, load average,
# rows pruned).
bench-json:
	$(PYTHON) -m pytest benchmarks/bench_parallel_scaling.py \
		benchmarks/bench_recovery_overhead.py \
		benchmarks/bench_optimizer_modes.py \
		--benchmark-only -s

# The end-to-end + per-layer benchmark's self-check (BENCHMARK.json is
# its contract; see benchmarks/e2e/README.md for full runs).
bench-e2e:
	python3 benchmarks/e2e/run.py --smoke

# Same-session A/B of two committed revisions on one e2e workload, or
# on every BENCHMARK.json workload in turn when WORKLOAD is empty:
# alternating pairs of fresh runs, medians, quartiles and win counts
# (see benchmarks/ab.py).  SEED picks the workloads' data: 101 is the
# benchmark's own, any other a held-out check of the same claim.
# TRACE=1 then runs one traced run per side and prints each per-layer
# metric's A, B and B/A.
A ?= HEAD~1
B ?= HEAD
WORKLOAD ?=
PAIRS ?= 10
SECONDS ?= 25
SEED ?= 101
TRACE ?= 0
bench-ab:
	python3 benchmarks/ab.py $(A) $(B) $(if $(WORKLOAD),--workload $(WORKLOAD)) \
		--pairs $(PAIRS) --seconds $(SECONDS) --seed $(SEED) \
		$(if $(filter 1,$(TRACE)),--trace)

# The one definition of the ROADMAP's line budget: all lines, then
# code-only lines (comment/docstring deletion is not a reduction), then
# the MiningOptions inventory (fields, values per enumerated field).
loc:
	@find src/repro -name '*.py' | xargs wc -l | tail -1
	@$(PYTHON) benchmarks/loc.py src/repro

examples:
	@for f in examples/*.py; do \
		echo "=== $$f ==="; \
		$(PYTHON) $$f || exit 1; \
	done

# The deliverable outputs referenced by the project brief.
outputs:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
