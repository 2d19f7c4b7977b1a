# Convenience targets; `make verify` is what CI runs.

CARGO ?= cargo

.PHONY: verify build test lint lint-chime model-check chaos serve serve-smoke perf-smoke baseline explain figs bench-harness loc clean

# Tier-1 gate (build + tests) plus the clippy lint wall, the protocol-aware
# chime-lint pass, the chime-model exhaustive protocol check, a fixed-seed
# chaos smoke run (deterministic fault injection with a
# crash-while-holding-a-leaf-lock scenario, serial and pipelined), the
# serving-layer determinism/chaos suite, the perf gate (including the
# K=4 coroutine points and the serve point), every figure with the paper's
# claims judged over it, and the out-of-tree benchmark harness's
# public-surface build and tests.
verify: build test lint lint-chime model-check chaos serve perf-smoke figs bench-harness

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

lint:
	$(CARGO) clippy --all-targets -- -D warnings

# Protocol-aware static analysis (lock-word layout, masked-CAS discipline,
# phase balance, determinism); writes the machine-readable report too.
lint-chime:
	$(CARGO) run --release -q -p analyzer --bin chime-lint -- --root . --json results/lint.json

# Exhaustive model check of the lock-lease protocol and the partition
# migration crash/recovery machine, against the layout extracted from the
# shipping lockword.rs. Verifies mutual exclusion, lease safety, routing
# integrity, journal discipline, progress; refutes the two seeded probes.
model-check:
	$(CARGO) run --release -q -p analyzer --bin chime-model -- --root . --json results/model.json

chaos:
	$(CARGO) test -p chime --test chaos --test chaos_pipelined -q
	$(CARGO) test -p part --test chaos -q

# Serving-layer gate: byte-identical replay under a fixed seed plus the
# connection-storm chaos suite (drops mid-pipeline, slow readers,
# admission exhaustion, composed fault injection).
serve:
	$(CARGO) test -p serve --test determinism --test chaos -q

# Real-TCP smoke: boots chime-server on a loopback port, drives the
# loadgen against it, and asserts every pipelined request is answered.
serve-smoke:
	$(CARGO) run --release -q -p serve --bin chime-server -- --smoke

# Fixed-seed micro-benchmark matrix compared against results/baseline.json;
# fails on any tolerance-exceeding regression. The simulator's virtual clock
# makes the numbers machine-independent.
perf-smoke:
	BENCH_OUT_DIR=results $(CARGO) run --release -p bench --bin perf_smoke

# Refresh the perf baseline after an intentional performance change.
baseline:
	BENCH_OUT_DIR=results $(CARGO) run --release -p bench --bin perf_smoke -- --write-baseline

# Attribute metric movement between two bench documents (BENCH_*.json or
# baseline.json), e.g. `make explain OLD=results/baseline.json NEW=new.json`.
OLD ?= results/baseline.json
NEW ?= results/BENCH_perf_smoke.json
explain:
	$(CARGO) run --release -p bench --bin explain -- $(OLD) $(NEW)

# Every table and figure at its published scale into results/ (≈ 5 min on a
# 2-vCPU box: fig_scale's two 10 M-key loads ≈ 125 s, fig18 ≈ 65 s, fig12
# ≈ 45 s, fig14, fig_scaleout and fig13 ≈ 15 s each), the paper's claims
# judged over them. `figs` exits 1 on a claim that fails without
# being a documented deviation, or on a documented deviation that starts
# passing; the tracked verdicts (results/claims.json) must not move.
figs:
	BENCH_OUT_DIR=results $(CARGO) run --release -p bench --bin figs -- --all
	git diff --exit-code results/claims.json

# The out-of-tree benchmark harness (benchmark/, its own workspace) links
# the crates through their public items only: build it and run its tests so
# a refactor that breaks that surface fails here, not in the benchmark.
bench-harness:
	$(CARGO) test --release --offline --manifest-path benchmark/Cargo.toml

# Non-test Rust lines per crate: src/ and benches/ of every crate and
# vendored shim, minus `tests.rs` files and everything from an inline
# `#[cfg(test)] mod … {` to the end of its file.
loc:
	@for d in crates/* vendor/*; do \
		find $$d/src $$d/benches -name '*.rs' ! -name tests.rs 2>/dev/null | sort | xargs -r awk \
			'FNR == 1 { skip = 0 } \
			 skip { next } \
			 /^#\[cfg\(test\)\]$$/ { if ((getline nx) > 0 && nx ~ /^mod [a-z_]+ \{/) { skip = 1; next } n++ } \
			 { n++ } \
			 END { printf "%-22s %6d\n", d, n }' d=$$d; \
	done | awk '{ print; t += $$2 } END { printf "%-22s %6d\n", "total", t }'

clean:
	$(CARGO) clean
