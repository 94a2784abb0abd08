PYTHON ?= python3

# Sweep-engine knobs for `make bench` (and anything else that honors
# them): REPRO_JOBS fans experiment shards across processes,
# REPRO_CACHE=0 disables the persistent result cache.  MEM=1 turns on
# the per-benchmark RSS high-water gauge (REPRO_BENCH_MEM) that
# benchmarks/conftest.py folds into .bench_meta.json.
REPRO_JOBS ?= 1
MEM ?=
# The warm-cache snapshot `make bench` writes and `make bench-compare`
# judges, and the committed snapshot to compare it against (no
# default: name one, e.g. BASE=BENCH_PR8.json).
SNAPSHOT ?= BENCH_PR10.json
BASE ?=

.PHONY: test bench bench-scaling bench-compare bench-quick bench-cold \
	bench-cold-compare calibrate calibrate-check docs-check experiments \
	examples quickcheck clean

test:
	$(PYTHON) -m pytest tests/

# Snapshot to $(SNAPSHOT); with BASE given, a summary comparison
# against it follows.  It is warn-only here because a warm-cache or
# parallel run is a different measurement than the committed serial
# baseline; `make bench-compare` is the strict gate.
bench:
	REPRO_JOBS=$(REPRO_JOBS) REPRO_BENCH_MEM=$(MEM) PYTHONPATH=src \
		$(PYTHON) -m pytest \
		benchmarks/ --benchmark-only --benchmark-disable-gc \
		--benchmark-json=.bench_raw.json
	PYTHONPATH=src $(PYTHON) tools/bench_snapshot.py .bench_raw.json \
		$(SNAPSHOT) --meta .bench_meta.json \
		--scaling .scaling_curve.json --million .million_point.json
	$(if $(BASE),PYTHONPATH=src $(PYTHON) tools/bench_compare.py \
		$(BASE) $(SNAPSHOT) --warn-only)

# Full weak-scaling sweep: REPRO_SCALING_FULL=1 adds the 1024-PE EM3D
# point and grows the capacity benchmark to 1M nodes/PE before the
# snapshot embeds the per-PE us/edge figures (weak_scaling section)
# and the footprint gauge (million_point section).  `make
# bench-scaling MEM=1` additionally records the per-benchmark RSS
# high-water series in the run metadata.
bench-scaling:
	REPRO_SCALING_FULL=1 $(MAKE) bench MEM=$(MEM)

# Strict perf gate: exit nonzero on >10% mean regression vs $(BASE)
# (wall-clock means and weak-scaling us/edge points), plus a
# bit-identity cross-check of the compute tiers (--tiers).
bench-compare:
	@test -n "$(BASE)" || { \
		echo "usage: make bench-compare BASE=<committed snapshot>"; exit 2; }
	PYTHONPATH=src $(PYTHON) tools/bench_compare.py $(BASE) \
		$(SNAPSHOT) --tiers

# The cold benchmark that performance claims cite (bench/README.md):
# every workload in fresh single-threaded children, results in
# bench/out/.  bench-cold-compare judges those results against another
# commit's, e.g. make bench-cold-compare BASE="../parent/bench/out/*.json"
bench-cold:
	PYTHONPATH=src $(PYTHON) -m bench run

bench-cold-compare:
	@case "$(BASE)" in ""|BENCH_PR*) \
		echo "usage: make bench-cold-compare BASE='<parent bench/out/*.json>'"; \
		exit 2;; esac
	PYTHONPATH=src $(PYTHON) -m bench compare $(BASE) -- bench/out/*.json

docs-check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_docs.py -q
	PYTHONPATH=src $(PYTHON) tools/check_doc_links.py

# Refit every analytic surrogate model against the simulator and
# rewrite FITTED_MODELS.json (observations run through the sweep
# engine, so REPRO_JOBS/REPRO_CACHE apply).
calibrate:
	REPRO_JOBS=$(REPRO_JOBS) PYTHONPATH=src $(PYTHON) -m repro \
		models fit

# Regression oracle: re-evaluate the *committed* fitted parameters
# against the current simulator; exit nonzero when any model no
# longer meets its recorded MAPE gate (behavioral drift).
calibrate-check:
	REPRO_JOBS=$(REPRO_JOBS) PYTHONPATH=src $(PYTHON) -m repro \
		models report --check

bench-quick:
	PYTHONPATH=src $(PYTHON) tools/bench_quick.py

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
	rm -rf .pytest_cache .hypothesis .benchmarks; true
