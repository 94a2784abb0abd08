PYTHON ?= python3

.PHONY: test bench-cold bench-cold-compare bench-pairs docs-check \
	experiments examples quickcheck clean

# The package is not installed: every target that imports repro runs
# with src/ on the path.  `make test` is the tier-1 suite.
SRC_PATH = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}

test:
	$(SRC_PATH) $(PYTHON) -m pytest -x -q

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

# Alternating pairs of cold runs of one workload in fresh copies of
# another commit and of this checkout, then bench compare
# (tools/bench_pairs.py), e.g.
#   make bench-pairs BASE=HEAD~1 WORKLOAD=bulk-transfer PAIRS=10 \
#        CLAIM=bulk-transfer:wall_rel
SEED ?= 1995
PAIRS ?= 10
bench-pairs:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { \
		echo "usage: make bench-pairs BASE=<rev> WORKLOAD=<name>" \
		     "[SEED=1995] [PAIRS=10] [CLAIM=<workload>:<metric>]"; \
		exit 2; }
	$(PYTHON) tools/bench_pairs.py --base $(BASE) --workload $(WORKLOAD) \
		--seed $(SEED) --pairs $(PAIRS) $(if $(CLAIM),--claim $(CLAIM))

docs-check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_docs.py -q
	PYTHONPATH=src $(PYTHON) tools/check_doc_links.py

experiments:
	$(SRC_PATH) $(PYTHON) -m repro experiments -o EXPERIMENTS.md

examples:
	@for f in examples/*.py; do \
		echo "== $$f"; $(SRC_PATH) $(PYTHON) $$f > /dev/null || exit 1; \
	done; echo "all examples ran"

quickcheck:
	$(SRC_PATH) $(PYTHON) -m repro hazards
	$(SRC_PATH) $(PYTHON) -m repro em3d --quick

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; \
	rm -rf .pytest_cache .hypothesis; true
