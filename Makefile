# Developer conveniences for the LDplayer reproduction.

PYTHON ?= python

.PHONY: install test test-fast ledger examples experiments clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# The one performance benchmark (benchmarks/ledger/README.md).
ledger:
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks/ledger -q

examples:
	for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script || exit 1; done

# Every table and figure: a loop over each experiment module's main().
experiments:
	$(PYTHON) -m repro.experiments.report

clean:
	rm -rf build src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
