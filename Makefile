.PHONY: test acceptance regen-goldens goldens bench bench-ab parity bench-record bench-smoke importtime profile loc verify

# The tier-1 tests of ROADMAP.md.
test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

acceptance:
	PYTHONPATH=src python3 -m pytest tests/test_acceptance.py -v -s

regen-goldens:
	python3 scripts/regen_goldens.py

PY ?= python3

# Regenerates every golden under $(PY), as make regen-goldens does (the
# commands of each row of GOLDENS in scripts/regen_goldens.py, through
# python -m psysafe, on each golden set), and fails if any golden file then
# differs from git's copy; the difference is left in the tree for review.
# Needs no pytest under $(PY).
goldens:
	$(PY) scripts/regen_goldens.py
	git diff --exit-code --stat -- corpus/paper/golden tests/golden

W ?= synth-trace
SEED ?= 1

bench:
	python3 perfbench/run.py --workload $(W) --seed $(SEED) --seconds 25

N ?= 10

# Runs workload $(W) in $(N) pairs of perfbench runs, revision $(REV)
# against this checkout's working tree, both written out by git archive,
# alternating which goes first, and prints each metric's medians and this
# checkout's wins: see scripts/bench_ab.py.
bench-ab:
	@test -n "$(REV)" || { echo "usage: make bench-ab REV=rev [W=workload] [N=10]" >&2; exit 2; }
	python3 scripts/bench_ab.py $(REV) --workload $(W) --pairs $(N)

# Runs the CLI ops of every workload, on inputs of seed $(SEED), with the
# sources of revision $(REV) (from git archive) and of this checkout, and
# prints per op whether exit code, stdout and stderr are the same; exits 1
# on any difference: see scripts/parity.py.
parity:
	@test -n "$(REV)" || { echo "usage: make parity REV=rev [SEED=1]" >&2; exit 2; }
	python3 scripts/parity.py $(REV) --seed $(SEED)

# Runs every workload once and writes BENCH_$(PR).json: one JSON object
# that maps each workload to the result line of perfbench/run.py. Stops,
# writing nothing, when a run fails. The workloads are those of
# BENCHMARK.json.
WORKLOADS = $(shell python3 -c 'import json; print(*(w["name"] for w in \
  json.load(open("BENCHMARK.json"))["workloads"]))')

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

CMD ?= check corpus/paper/*.psy

# Runs one CLI command, CMD, under python -X importtime and prints the 15
# modules with the largest self time, in microseconds. The command's own
# output is discarded.
importtime:
	@PYTHONPATH=src python3 -X importtime -m psysafe $(CMD) 2>&1 >/dev/null \
	  | awk -F'|' '/^import time: +[0-9]/ { sub(/^import time: +/, "", $$1); \
	    sub(/^ +/, "", $$3); printf "%8d us  %s\n", $$1, $$3 }' \
	  | sort -k1,1nr | head -n 15

# Profiles one CLI command, CMD, in process: cli.run under cProfile, since
# cli.main ends the process before cProfile could write. Prints the 15
# functions with the largest self time, under the profile's column header.
# The command's own output is discarded.
profile:
	@PYTHONPATH=src python3 -c 'import cProfile, sys; \
	  from psysafe.cli import run; \
	  cProfile.run("run(sys.argv[1:])", sort="tottime")' $(CMD) 2>/dev/null \
	  | awk '/^ +ncalls +tottime/ { shown = 1 } shown' | head -n 16

loc:
	@wc -l src/psysafe/*.py | tail -n 1

# The checks every change reports, in the order it reports them: the
# tier-1 tests (the goldens among them, through python -m psysafe), the
# benchmark smoke test, the src/ line count.
verify:
	@$(MAKE) --no-print-directory test
	@$(MAKE) --no-print-directory bench-smoke
	@$(MAKE) --no-print-directory loc
