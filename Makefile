# Convenience targets; `make verify` is what CI runs.

CARGO ?= cargo

.PHONY: verify build test lint chaos serve serve-smoke explain figs bench-harness pairs loc clean

# Tier-1 gate (build + tests) plus the clippy lint wall (with clippy.toml's
# determinism and masked-CAS rules) and a warning-free rustdoc build, a
# fixed-seed chaos smoke run (deterministic fault injection with a
# crash-while-holding-a-leaf-lock scenario, serial and pipelined) beside the
# bounded schedule exploration of the lock lease and the partition
# migration, the serving-layer determinism/chaos suite, every figure with
# the paper's claims judged over it and the smoke matrix's metrics pinned,
# and the out-of-tree benchmark harness's public-surface build and tests.
verify: build test lint chaos serve figs bench-harness

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

lint:
	$(CARGO) clippy --all-targets -- -D warnings
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

# Fault injection under fixed seeds, and `sched::explore` running the lock
# lease (`chime`) and the partition migration with each of its crash points
# (`part`) under every schedule within a deviation bound.
chaos:
	$(CARGO) test -p chime --test chaos --test chaos_pipelined --test explore -q
	$(CARGO) test -p part --test chaos --test explore -q

# Serving-layer gate: byte-identical replay under a fixed seed plus the
# connection-storm chaos suite (drops mid-pipeline, slow readers,
# admission exhaustion, composed fault injection).
serve:
	$(CARGO) test -p serve --test determinism --test chaos -q

# Real-TCP smoke: boots chime-server on a loopback port, drives the
# loadgen against it, and asserts every pipelined request is answered.
serve-smoke:
	$(CARGO) run --release -q -p serve --bin chime-server -- --smoke

# Attribute metric movement between two bench documents (figure reports
# BENCH_<name>.json, or smoke.json), e.g. `make explain OLD=a.json
# NEW=b.json`. Without OLD it diffs the results/smoke.json committed at
# BASE (default HEAD) against the working tree's: after `make figs` moved
# it, this says why; `make explain BASE=HEAD~1` says why the last commit did.
NEW ?= results/smoke.json
BASE ?= HEAD
explain:
ifndef OLD
	@mkdir -p target && git show $(BASE):results/smoke.json > target/smoke.base.json
endif
	$(CARGO) run --release -p bench --bin explain -- $(or $(OLD),target/smoke.base.json) $(NEW)

# Every table and figure at its published scale into results/ (≈ 270–330 s
# on a 2-vCPU box, of which fig_scale, with its two 10 M-key loads, takes
# ≈ 60–70 s), the paper's claims judged over them. `figs` exits 1 on a claim that fails without
# being a documented deviation, or on a documented deviation that starts
# passing. The tracked verdicts (results/claims.json) and the smoke
# figure's flat metrics (results/smoke.json, exact per seed) must not move
# by a byte: a deliberate change commits the regenerated files, and
# `make explain` says what moved them.
figs:
	BENCH_OUT_DIR=results $(CARGO) run --release -p bench --bin figs -- --all
	git diff --exit-code results/claims.json results/smoke.json

# The out-of-tree benchmark harness (benchmark/, its own workspace) links
# the crates through their public items only: build it and run its tests so
# a refactor that breaks that surface fails here, not in the benchmark.
# Building it rewrites its stale lock file: a clean one is checked out again.
bench-harness:
	@lock_clean=$$(git diff --quiet -- benchmark/Cargo.lock && echo 1); \
	$(CARGO) test --release --offline --manifest-path benchmark/Cargo.toml; status=$$?; \
	if [ -n "$$lock_clean" ]; then git checkout --quiet -- benchmark/Cargo.lock; fi; \
	exit $$status

# Host-speed pairs: alternating `--trace 0` passes of one benchmark workload,
# BASE against the working tree, each exported with `git archive` under
# target/pairs/<sha> and built there with its own target dir, e.g. `make
# pairs BASE=HEAD~1 WORKLOAD=scan_insert N=10 ARGS="--seed 7"`. Prints each
# end-to-end metric's quartiles and median per side, the medians' ratio and
# in how many pairs the change was ahead; see tools/pairs.sh.
WORKLOAD ?= scan_insert
N ?= 10
pairs:
	tools/pairs.sh $(BASE) $(WORKLOAD) $(N) $(ARGS)

# Non-test Rust lines per crate: src/ and benches/ of every crate and
# vendored shim, minus `tests.rs` files and everything from an inline
# `#[cfg(test)] mod … {` to the end of its file. The `docs` column is how
# many of those lines are `//!` or `///` doc comments, so prose moved into
# crate docs does not read as code growth.
loc:
	@for d in crates/* vendor/*; do \
		find $$d/src $$d/benches -name '*.rs' ! -name tests.rs 2>/dev/null | sort | xargs -r awk \
			'FNR == 1 { skip = 0 } \
			 skip { next } \
			 /^#\[cfg\(test\)\]$$/ { if ((getline nx) > 0 && nx ~ /^mod [a-z_]+ \{/) { skip = 1; next } n++ } \
			 /^[ \t]*\/\/[!\/]/ && !/^[ \t]*\/\/\/\// { doc++ } \
			 { n++ } \
			 END { printf "%-22s %6d %6d\n", d, n, doc }' d=$$d; \
	done | awk 'BEGIN { printf "%-22s %6s %6s\n", "", "lines", "docs" } \
		{ print; t += $$2; u += $$3 } END { printf "%-22s %6d %6d\n", "total", t, u }'

clean:
	$(CARGO) clean
