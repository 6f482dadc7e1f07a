.PHONY: test acceptance regen-goldens bench bench-smoke loc

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

bench-smoke:
	python3 -m pytest perfbench/test_smoke.py -q

loc:
	@wc -l src/psysafe/*.py | tail -n 1
