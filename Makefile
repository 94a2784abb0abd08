PYTHON ?= python3

.PHONY: test bench-cold bench-cold-compare docs-check experiments \
	examples quickcheck clean

test:
	$(PYTHON) -m pytest tests/

# The cold benchmark that performance claims cite (bench/README.md):
# every workload in fresh single-threaded children, results in
# bench/out/.  bench-cold-compare judges those results against another
# commit's, e.g. make bench-cold-compare BASE="../parent/bench/out/*.json"
bench-cold:
	PYTHONPATH=src $(PYTHON) -m bench run

bench-cold-compare:
	@test -n "$(BASE)" || { \
		echo "usage: make bench-cold-compare BASE='<parent bench/out/*.json>'"; \
		exit 2; }
	PYTHONPATH=src $(PYTHON) -m bench compare $(BASE) -- bench/out/*.json

docs-check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_docs.py -q
	PYTHONPATH=src $(PYTHON) tools/check_doc_links.py

experiments:
	$(PYTHON) -m repro experiments -o EXPERIMENTS.md

examples:
	@for f in examples/*.py; do \
		echo "== $$f"; $(PYTHON) $$f > /dev/null || exit 1; \
	done; echo "all examples ran"

quickcheck:
	$(PYTHON) -m repro hazards
	$(PYTHON) -m repro em3d --quick

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; \
	rm -rf .pytest_cache .hypothesis; true
