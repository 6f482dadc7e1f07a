.PHONY: test acceptance regen-goldens bench bench-record bench-smoke loc

test:
	PYTHONPATH=src python3 -m pytest

acceptance:
	PYTHONPATH=src python3 -m pytest tests/test_acceptance.py -v -s

regen-goldens:
	python3 scripts/regen_goldens.py

W ?= synth-trace
SEED ?= 1

bench:
	python3 perfbench/run.py --workload $(W) --seed $(SEED) --seconds 25

# Runs every workload once and writes BENCH_$(PR).json: one JSON object
# that maps each workload to the result line of perfbench/run.py. Stops,
# writing nothing, when a run fails.
WORKLOADS = paper-cli synth-16k synth-trace synth-broken

bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=n" >&2; exit 2; }
	@doc="{"; sep=""; \
	for w in $(WORKLOADS); do \
	  out=$$(python3 perfbench/run.py --workload $$w --seed $(SEED) \
	         --seconds 25) || exit 1; \
	  line=$$(printf '%s\n' "$$out" | tail -n 1); \
	  doc="$$doc$$sep$$(printf '\n  "%s": %s' "$$w" "$$line")"; \
	  sep=","; \
	done; \
	printf '%s\n}\n' "$$doc" > BENCH_$(PR).json
	@echo "wrote BENCH_$(PR).json"

bench-smoke:
	python3 -m pytest perfbench/test_smoke.py -q

loc:
	@wc -l src/psysafe/*.py | tail -n 1
