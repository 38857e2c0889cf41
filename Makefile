# Developer conveniences for the LDplayer reproduction.

PYTHON ?= python

.PHONY: install test test-fast bench ledger examples experiments clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The one performance benchmark (benchmarks/ledger/README.md).
ledger:
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks/ledger -q

examples:
	for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script || exit 1; done

experiments:
	$(PYTHON) -m repro.experiments.table1
	$(PYTHON) -m repro.experiments.timing
	$(PYTHON) -m repro.experiments.throughput
	$(PYTHON) -m repro.experiments.dnssec
	$(PYTHON) -m repro.experiments.tcp_tls
	$(PYTHON) -m repro.experiments.latency
	$(PYTHON) -m repro.experiments.quic
	$(PYTHON) -m repro.experiments.attack
	$(PYTHON) -m repro.experiments.zone_growth
	$(PYTHON) -m repro.experiments.resilience
	$(PYTHON) -m repro.experiments.failover
	$(PYTHON) -m repro.experiments.cachepolicy

clean:
	rm -rf build src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
