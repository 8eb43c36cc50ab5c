package main

import (
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's contract; BENCHMARK.json lists the same
// names in the same order (TestBenchmarkJSONMatchesTables).
type metricDef struct{ Name, Unit string }

// endToEnd metrics are what a user of the system sees. Every workload
// reports every one of them, from its untraced run, and each is steady
// enough run to run on a small shared host to be gated:
//
//   - classify_p50_ms: median classify latency. On engage the wall time
//     of System.Run over 110+ engagements; on serve-classify the
//     nominal phase and on serve-mixed the classify stream, timed from
//     each request's due time.
//   - cpu_ms_per_req: process CPU time (user + system) per completed
//     request while the CPUs are not saturated: the whole engage run,
//     the nominal phase of serve-classify, the open-loop phase of
//     serve-mixed. It is what a request costs in serving capacity and,
//     unlike throughput, does not count time the host kept the process
//     off a CPU. (In a saturated phase CPU per request is just the
//     inverse of throughput.)
//   - stream_kb_per_req: shard bytes a classify request's stream read
//     from the store layer (ExecStats.BytesRead over the batch it
//     shared): emulated flash on engage; the SharedCache, flash and
//     retained hits alike, on serve-* (whose shards all stay retained,
//     so their flash reads, store.flash_kb_per_req, are 0).
//   - peak_heap_mb: the live heap the GC marked at the end of each GC
//     cycle of the measured phases, 99th percentile over the cycles (see
//     runtimeProbe). The benchmark's own share is a constant for a
//     given seed and --seconds (compact per-call records, schedules
//     and reference answers; no served result is kept), printed on
//     serve-* as bench_held_mb.
//
// Tails (engage_p90_ms, classify_p90_ms, classify_p99_ms, gen_*) and
// throughputs (engagements/s, classify_goodput_rps within SLO,
// classify_overload_rps, gen_tok_s) are printed by name. They are not
// gated: on a 2-CPU host shared with other tenants they moved by 20-50%
// between runs of the same code, wider than any useful bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"classify_p50_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"fidelity", "ratio"},
	{"stream_kb_per_req", "KB"},
	{"peak_heap_mb", "MB"},
}

// perLayer metrics come from the traced run. A layer a workload does
// not drive reports 0 (serve.* on engage, batcher.* outside
// serve-mixed). README.md maps each to the end-to-end metric it should
// move.
var perLayer = []metricDef{
	{"pipeline.stall_ms", "ms"},
	{"pipeline.io_ms", "ms"},
	{"pipeline.compute_ms", "ms"},
	{"pipeline.preload_hit_ratio", "ratio"},
	{"store.flash_kb_per_req", "KB"},
	{"store.read_ms", "ms"},
	{"store.read_mb_s", "MB/s"},
	{"store.decode_ms", "ms"},
	{"store.cache_hit_ratio", "ratio"},
	{"planner.plan_ms", "ms"},
	{"planner.predicted_ms", "ms"},
	{"planner.error_ratio", "ratio"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.batch_mean", "count"},
	{"serve.refused_frac", "ratio"},
	{"serve.deadline_frac", "ratio"},
	{"serve.downgraded_frac", "ratio"},
	{"fleet.exec_p50_ms", "ms"},
	{"fleet.exec_p99_ms", "ms"},
	{"fleet.tier_hit_ratio", "ratio"},
	{"batcher.streams_per_step", "count"},
	{"batcher.step_ms", "ms"},
	{"batcher.preempted_frac", "ratio"},
	{"batcher.recomputed_frac", "ratio"},
	{"batcher.kv_peak_kb", "KB"},
	{"runtime.allocs_per_req", "count"},
	{"runtime.alloc_kb_per_req", "KB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
}

// report is what one workload run measured.
type report struct {
	e2e   map[string]float64 // endToEnd names
	layer map[string]float64 // perLayer names
	// named holds the metrics each workload defines for itself
	// (engage_p90_ms, gen_ttft_p99_ms, ...), printed by name for the
	// workloads they apply to.
	named     []namedValue
	phases    []phaseCount
	attempted int
	failed    int   // wrong answers plus errors that are not refusals
	firstErr  error // the first of those, printed for diagnosis
}

type namedValue struct {
	Name  string
	Value float64
	Unit  string
}

func newReport() *report {
	return &report{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

func (r *report) name(n string, v float64, unit string) {
	r.named = append(r.named, namedValue{n, v, unit})
}

// runtimeProbe measures the Go runtime over one measured phase:
// allocation counts, GC CPU share and the live heap, sampled every
// probeEvery. extra, when set, is sampled on the same tick.
//
// The live heap changes only when a GC cycle ends, tens of times a
// second here, and its largest value over a whole run rests on one
// coincidence of request bursts and GC timing: it moved by 15% between
// runs of the same code. The probe therefore keeps the live heap of
// every GC cycle that ends in the phase, and peak_heap_mb is their
// 99th percentile (see heapPeak).
type runtimeProbe struct {
	start   []metrics.Sample
	cpu0    time.Duration
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	cycles  []float64 // live heap at the end of each GC cycle, bytes
	extraHi float64
}

const probeEvery = 2 * time.Millisecond

var probeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProbe() []metrics.Sample {
	s := make([]metrics.Sample, len(probeNames))
	for i, n := range probeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startRuntimeProbe(extra func() float64) *runtimeProbe {
	p := &runtimeProbe{start: readProbe(), cpu0: processCPU(), stop: make(chan struct{}), done: make(chan struct{})}
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(heap)
	cycle := heap[1].Value.Uint64() // earlier cycles marked set-up's heap
	go func() {
		defer close(p.done)
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			metrics.Read(heap)
			var x float64
			if extra != nil {
				x = extra()
			}
			p.mu.Lock()
			if c := heap[1].Value.Uint64(); c != cycle {
				cycle = c
				p.cycles = append(p.cycles, float64(heap[0].Value.Uint64()))
			}
			p.extraHi = max(p.extraHi, x)
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// runtimeDelta is what the runtime did between probe start and finish.
type runtimeDelta struct {
	allocs, allocBytes float64
	gcCPUFrac          float64
	peakHeap           float64 // bytes, see heapPeak
	extraPeak          float64
	cpu                time.Duration // process CPU time, user + system
}

// processCPU is the CPU time this process has used. Unlike wall time
// it does not count time the host kept the process off a CPU.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// finish stops the sampler and returns the deltas.
func (p *runtimeProbe) finish() runtimeDelta {
	close(p.stop)
	<-p.done
	end := readProbe()
	d := runtimeDelta{
		cpu:        processCPU() - p.cpu0,
		allocs:     float64(end[0].Value.Uint64() - p.start[0].Value.Uint64()),
		allocBytes: float64(end[1].Value.Uint64() - p.start[1].Value.Uint64()),
	}
	if total := end[3].Value.Float64() - p.start[3].Value.Float64(); total > 0 {
		d.gcCPUFrac = (end[2].Value.Float64() - p.start[2].Value.Float64()) / total
	}
	p.mu.Lock()
	d.peakHeap, d.extraPeak = heapPeak(p.cycles), p.extraHi
	p.mu.Unlock()
	return d
}

// heapPeak is the 99th percentile of the live heap over GC cycles, or
// on a run with too few cycles for that their maximum (with none, the
// live heap now).
func heapPeak(cycles []float64) float64 {
	if v, ok := percentile(append([]float64(nil), cycles...), 99); ok {
		return v
	}
	if len(cycles) > 0 {
		return slices.Max(cycles)
	}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	return float64(live[0].Value.Uint64())
}

// addRuntime fills the runtime metrics of a report for n completed
// requests.
func (r *report) addRuntime(d runtimeDelta, n int) {
	r.e2e["peak_heap_mb"] = d.peakHeap / (1 << 20)
	if n > 0 {
		r.layer["runtime.allocs_per_req"] = d.allocs / float64(n)
		r.layer["runtime.alloc_kb_per_req"] = d.allocBytes / 1024 / float64(n)
	}
	r.layer["runtime.gc_cpu_frac"] = d.gcCPUFrac
}
