package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"sti"
	"sti/internal/model"
	"sti/internal/pipeline"
	"sti/internal/store"
)

// The engage workload is the paper's setting: one app, one engagement
// at a time (a closed loop with one client and no think time),
// classifying through System.Run on a 12x12 model planned for the
// Odroid profile, with every shard read paying that profile's flash
// cost.
const (
	engageTarget = 200 * time.Millisecond
	// preloadBudget is sti-serve's default -budget.
	preloadBudget = 256 << 10
	// engagePool is how many distinct inputs an engage run cycles
	// through; each needs a reference forward pass in set-up.
	engagePool = 16
	// engageMinSamples keeps a run going past --seconds until p90 has
	// ten samples beyond it.
	engageMinSamples = 110
	// modelSeed fixes the weights: the seed varies the inputs, not the
	// system under test.
	modelSeed = 11
)

// engageConfig is the bench geometry: BERT-base's 12x12 elastic
// structure at a width whose compute is comparable to the emulated IO.
func engageConfig() model.Config {
	return model.Config{Layers: 12, Heads: 12, Hidden: 192, FFN: 768, Vocab: 2048, MaxSeq: 64, Classes: 2}
}

// engageInputs draws the input pool: lengths stratified over 8..64
// tokens (one per stratum, so every seed covers the range evenly) and
// uniformly random token ids.
func engageInputs(rng *rand.Rand, n int, cfg model.Config) [][]int {
	const lo, hi = 8, 64
	pool := make([][]int, n)
	for i := range pool {
		span := float64(hi-lo+1) / float64(n)
		length := lo + int((float64(i)+rng.Float64())*span)
		toks := make([]int, length)
		for j := range toks {
			toks[j] = rng.Intn(cfg.Vocab)
		}
		pool[i] = toks
	}
	rng.Shuffle(n, func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

type engageSys struct {
	dir     string
	sys     *sti.System
	flash   *flashReader
	plan    *sti.Plan
	planDur time.Duration
	want    [][]float32 // reference logits per pool input
}

func (s *engageSys) close()                  { os.RemoveAll(s.dir) }
func (s *engageSys) planTime() time.Duration { return s.planDur }

// setupEngage preprocesses the model, loads it with the emulated flash
// in front of its store, plans, warms and builds the references.
func setupEngage(e *env, inputs [][]int) (*engageSys, error) {
	dir, err := os.MkdirTemp(e.workdir, "engage-")
	if err != nil {
		return nil, err
	}
	s := &engageSys{dir: dir}
	fail := func(err error) (*engageSys, error) {
		s.close()
		return nil, err
	}
	if _, err := sti.Preprocess(dir, sti.NewRandomModel(engageConfig(), modelSeed), nil); err != nil {
		return fail(err)
	}
	if s.sys, err = sti.Load(dir, sti.Odroid(), preloadBudget); err != nil {
		return fail(err)
	}
	s.flash = newFlashReader(s.sys.Store, s.sys.Device)
	s.sys.Engine.SetPayloadSource(s.flash)
	start := time.Now()
	if s.plan, err = s.sys.Plan(engageTarget, preloadBudget); err != nil {
		return fail(err)
	}
	s.planDur = time.Since(start)
	if err := s.sys.Warm(s.plan); err != nil {
		return fail(err)
	}
	s.flash.newJob()
	sm, _, err := s.sys.Engine.Materialize(context.Background(), s.plan)
	if err != nil {
		return fail(err)
	}
	for _, in := range inputs {
		s.want = append(s.want, sm.Logits(in, nil))
	}
	s.flash.take() // set-up reads are not the run's
	return s, nil
}

func runEngage(e *env) (*report, error) {
	rng := rand.New(rand.NewSource(e.seed))
	cfg := engageConfig()
	inputs := engageInputs(rng, engagePool, cfg)
	s, setup, err := repeatSetup(func() (*engageSys, error) { return setupEngage(e, inputs) })
	if err != nil {
		return nil, err
	}
	defer s.close()

	// Traced runs record each flash read and engagement as it happens,
	// into buffers sized up front; spans and the store.DecodePayload
	// replay over every payload the plan's stream decodes come after the
	// runtime probe stops, so runtime.* measure System.Run alone.
	type interval struct {
		n          int
		start, end time.Time
	}
	var planPayloads [][]byte
	var runs, reads []interval
	n := 0
	if e.rec != nil {
		if planPayloads, err = streamPayloads(s.sys.Store, s.plan); err != nil {
			return nil, err
		}
		runs = make([]interval, 0, 4*engageMinSamples)
		reads = make([]interval, 0, 4*engageMinSamples*len(planPayloads))
		s.flash.onRead = func(start, end time.Time) {
			reads = append(reads, interval{n, start, end})
		}
	}

	r := newReport()
	var lat, stall, io, comp, hits, readMs []float64
	var flashBytes int64
	var flashBusy time.Duration
	within, mismatches := 0, 0
	order := rng.Perm(engagePool)
	probe := startRuntimeProbe(nil)
	begin := time.Now()
	hardStop := begin.Add(3 * e.seconds)
	for ; ; n++ {
		now := time.Now()
		if now.After(hardStop) || (now.Sub(begin) >= e.seconds && n >= engageMinSamples) {
			break
		}
		if n%engagePool == 0 && n > 0 {
			order = rng.Perm(engagePool)
		}
		idx := order[n%engagePool]
		s.flash.newJob()
		t0 := time.Now()
		resp, err := s.sys.Run(context.Background(), s.plan, sti.Request{Task: sti.TaskClassify, Tokens: inputs[idx]})
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("engagement %d: %w", n, err)
		}
		if !sameLogits(resp.Logits, s.want[idx]) {
			mismatches++
		}
		b, _, busy := s.flash.take()
		flashBytes += b
		flashBusy += busy
		d := t1.Sub(t0)
		lat = append(lat, ms(d))
		if d <= engageTarget {
			within++
		}
		st := resp.Stats
		stall = append(stall, ms(st.Stall))
		io = append(io, ms(sum(st.LayerIO)))
		comp = append(comp, ms(sum(st.LayerCompute)))
		hits = append(hits, float64(st.CacheHits)/float64(s.plan.ShardCount()))
		readMs = append(readMs, ms(busy))
		if e.rec != nil {
			runs = append(runs, interval{n, t0, t1})
		}
	}
	elapsed := time.Since(begin)
	rt := probe.finish()

	var decodeMs []float64
	if e.rec != nil {
		s.flash.onRead = nil
		roots := make([]int, len(runs))
		for i, run := range runs {
			roots[i] = e.rec.add(uint64(run.n), -1, "sti.Run", run.start, run.end)
		}
		for _, rd := range reads {
			if rd.n < len(roots) {
				e.rec.add(uint64(rd.n), roots[rd.n], "store.read", rd.start, rd.end)
			}
		}
		for _, run := range runs {
			dec, err := decodeSpans(e.rec, uint64(run.n), planPayloads)
			if err != nil {
				return nil, err
			}
			decodeMs = append(decodeMs, ms(dec))
		}
	}

	r.attempted, r.failed = n, mismatches
	r.phases = []phaseCount{{Name: "engage", Sent: n, Succeeded: n - mismatches, Failed: mismatches}}
	p50 := median(append([]float64(nil), lat...))
	p90, ok := percentile(append([]float64(nil), lat...), 90)
	if !ok {
		return nil, fmt.Errorf("engage: %d engagements are too few for p90", n)
	}
	r.e2e["setup_s"] = setup.seconds
	r.e2e["classify_p50_ms"] = p50
	r.name("engagements_per_s", float64(n)/elapsed.Seconds(), "1/s")
	r.name("engage_within_target_per_s", float64(within)/elapsed.Seconds(), "1/s")
	r.e2e["fidelity"] = s.plan.Fidelity(cfg.Layers, cfg.Heads)
	r.e2e["stream_kb_per_req"] = float64(flashBytes) / 1024 / float64(n)
	r.layer["store.flash_kb_per_req"] = r.e2e["stream_kb_per_req"]
	r.addRuntime(rt, n)
	r.e2e["cpu_ms_per_req"] = ms(rt.cpu) / float64(n)
	r.name("engage_p50_ms", p50, "ms")
	r.name("engage_p90_ms", p90, "ms")
	r.name("engagements", float64(n), "count")

	predicted := pipeline.Simulate(s.sys.Device, pipeline.PlanJobs(s.plan, pipeline.ManifestSizer{Man: s.sys.Store.Man})).Total()
	r.layer["pipeline.stall_ms"] = mean(stall)
	r.layer["pipeline.io_ms"] = mean(io)
	r.layer["pipeline.compute_ms"] = mean(comp)
	r.layer["pipeline.preload_hit_ratio"] = mean(hits)
	r.layer["store.read_ms"] = mean(readMs)
	if flashBusy > 0 {
		r.layer["store.read_mb_s"] = float64(flashBytes) / 1e6 / flashBusy.Seconds()
	}
	r.layer["store.decode_ms"] = mean(decodeMs)
	r.layer["planner.plan_ms"] = setup.planMs
	r.layer["planner.predicted_ms"] = ms(predicted)
	r.layer["planner.error_ratio"] = p50 / ms(predicted)
	return r, nil
}

// streamPayloads reads, straight from the store, every shard payload
// one execution of the plan decodes (preloaded or streamed alike).
func streamPayloads(st *store.Store, p *sti.Plan) ([][]byte, error) {
	var out [][]byte
	for l := 0; l < p.Depth; l++ {
		for j, s := range p.Slices[l] {
			b, err := st.ReadShardPayload(l, s, p.Bits[l][j])
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
	}
	return out, nil
}

// decodeSpans times store.DecodePayload over payloads, recording one
// store.decode span per payload under request req, and returns the
// total.
func decodeSpans(rec *recorder, req uint64, payloads [][]byte) (time.Duration, error) {
	var total time.Duration
	for _, b := range payloads {
		t0 := time.Now()
		_, err := store.DecodePayload(b)
		t1 := time.Now()
		if err != nil {
			return 0, fmt.Errorf("replaying decode: %w", err)
		}
		rec.add(req, -1, "store.decode", t0, t1)
		total += t1.Sub(t0)
	}
	return total, nil
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
