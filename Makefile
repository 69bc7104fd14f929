GO ?= go

.PHONY: build test test-race test-kernels vet vuln bench bench-all bench-json bench-train bench-dataset bench-ckpt bench-smoke fuzz ci serve-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages with concurrency: the PDES
# kernel and its worker pool, the sharded fabric, the batched inference
# and training engines, the cluster composition layer that drives them,
# the parallel hyper-parameter search, and the estimation service
# (scheduler, registry, HTTP surface).
test-race:
	$(GO) test -race ./internal/sim ./internal/netsim ./internal/core ./internal/cluster ./internal/ml ./internal/tuning ./internal/serve

# vet runs under both build configurations — the default (assembly
# kernels) and purego — so an accelerator-tagged file can't silently
# become load-bearing or rot behind its tag.
vet:
	$(GO) vet ./...
	GOFLAGS=-tags=purego $(GO) vet ./...

# test-kernels runs the ML tests under every forced GEMM kernel family
# (scalar, sse2, avx2 when the CPU has it) plus the purego build, so a
# kernel can't pass CI only because it happened to be the default pick.
# All families are bitwise identical, so the same tests must pass
# unchanged under each — including the engine-vs-legacy golden parity
# suite, whose fingerprints are kernel-independent for the same reason.
test-kernels:
	MIMICNET_GEMM=scalar $(GO) test -count=1 ./internal/ml
	MIMICNET_GEMM=scalar $(GO) test -count=1 -run TestEngineGoldenParity ./internal/core
	MIMICNET_GEMM=sse2 $(GO) test -count=1 ./internal/ml
	MIMICNET_GEMM=sse2 $(GO) test -count=1 -run TestEngineGoldenParity ./internal/core
	@if grep -q avx2 /proc/cpuinfo 2>/dev/null; then \
		MIMICNET_GEMM=avx2 $(GO) test -count=1 ./internal/ml; \
		MIMICNET_GEMM=avx2 $(GO) test -count=1 -run TestEngineGoldenParity ./internal/core; \
	else \
		echo "skipping MIMICNET_GEMM=avx2 (CPU lacks AVX2)"; \
	fi
	GOFLAGS=-tags=purego $(GO) test -count=1 ./internal/ml
	GOFLAGS=-tags=purego $(GO) test -count=1 -run TestEngineGoldenParity ./internal/core

# Known-vulnerability scan, gated on the tool being installed: the build
# environment is hermetic (no network, no `go install`), so CI machines
# without govulncheck skip the scan instead of failing.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "skipping govulncheck (not installed; go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Everything the driver gates on, in one target.
ci: vet vuln test-race test-kernels bench-smoke

# Batched vs per-packet inference cost per model step at the fused widths
# composed runs issue (B = 1, 2, 4, 7, 8, 16, 32); batched/mix is the
# width-histogram-weighted ns/step of production traffic.
bench:
	$(GO) test -run xxx -bench BenchmarkMimicInference -benchtime 0.5s -count 2 .

# Sequential vs sharded composed estimate at N=8; writes machine-readable
# ns/simulated-second, events/sec, allocs/event to BENCH_compose.json.
# Also measures every GEMM kernel family (raw GFLOP/s, inference ns/step,
# train samples/sec, speedups vs sse2) into BENCH_gemm.json.
bench-json:
	BENCH_COMPOSE_JSON=BENCH_compose.json $(GO) test -run xxx -bench BenchmarkComposedRun -benchtime 3x .
	BENCH_GEMM_JSON=$(CURDIR)/BENCH_gemm.json $(GO) test -run xxx -bench BenchmarkGemmKernels -benchtime 2s ./internal/ml

# Minibatch training at B=1, 8 and 16 (plus a GRU row at B=16) on one
# identical dataset; writes machine-readable samples/sec, ns/sample,
# allocs/sample to BENCH_train.json (B=16 must be >= 2x the samples/sec
# of B=1).
bench-train:
	BENCH_TRAIN_JSON=BENCH_train.json $(GO) test -run xxx -bench BenchmarkTrain -benchtime 3x .

# Legacy window-of-slices vs columnar dataset build on one identical
# synthetic boundary trace; writes allocs/sample, bytes/sample,
# overhead-bytes/sample and the cross-layout ratios to
# BENCH_dataset.json (the columnar build must cut allocated overhead
# bytes per sample by >= 5x with train samples/sec unregressed).
bench-dataset:
	BENCH_DATASET_JSON=BENCH_dataset.json $(GO) test -run xxx -bench BenchmarkDatasetBuild -benchtime 3x .

# Durability cost sheet: journal append throughput (per-record vs
# batched fsync), checkpoint container write/restore latency across
# payload sizes, 10k-record recovery replay, and the training wall-clock
# overhead of checkpointing at the default interval (acceptance: <= 2%).
# Machine-readable copy lands in BENCH_ckpt.json.
bench-ckpt:
	BENCH_CKPT_JSON=$(CURDIR)/BENCH_ckpt.json $(GO) test -run xxx -bench BenchmarkDurability -benchtime 1x ./internal/durable

# Full paper reproduction: every table/figure benchmark (slow).
bench-all:
	$(GO) test -bench . -benchmem .

# One iteration of every Benchmark* (~3-4 min): a crash-and-wiring
# canary over the whole suite, not a measurement. Tables land in
# bench_output.txt to keep CI logs readable.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x . > bench_output.txt
	$(GO) test -run xxx -bench BenchmarkGemmKernels -benchtime 1x ./internal/ml >> bench_output.txt

fuzz:
	$(GO) test -run xxx -fuzz FuzzMulLanes -fuzztime 30s ./internal/ml
	$(GO) test -run xxx -fuzz FuzzGemmKernels -fuzztime 30s ./internal/ml
	$(GO) test -run xxx -fuzz FuzzGemmBackwardKernels -fuzztime 30s ./internal/ml
	$(GO) test -run xxx -fuzz FuzzGateKernels -fuzztime 30s ./internal/ml
	$(GO) test -run xxx -fuzz FuzzRowKernel -fuzztime 30s ./internal/ml
	$(GO) test -run xxx -fuzz FuzzW1 -fuzztime 30s ./internal/metrics
	$(GO) test -run xxx -fuzz FuzzHistogramObserve -fuzztime 30s ./internal/obs

# End-to-end daemon check: boots mimicnetd on a random port, runs a cold
# job over HTTP, proves the identical resubmission skips training via a
# registry cache hit in /stats, measures cold/warm latency and warm
# throughput (BENCH_serve.json), and SIGTERMs itself mid-job to verify
# graceful drain (in-flight job finishes, new submissions rejected).
serve-smoke:
	$(GO) run ./cmd/mimicnetd -smoke -bench-json BENCH_serve.json

clean:
	$(GO) clean -testcache
	rm -f mimicnet.test ml.test bench_output.txt BENCH_serve.json BENCH_train.json
