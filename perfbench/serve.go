package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"
	"unsafe"

	"sti"
	"sti/internal/obs"
)

// The serve workloads drive a Fleet + Scheduler set up exactly as
// sti-serve's defaults, observability hub included and tracing, the way
// the HTTP handlers call them minus the HTTP.
const (
	modelName     = "m"
	serveTarget   = 200 * time.Millisecond // sti-serve's default per-model target
	serveQueue    = 64
	serveWorkers  = 2
	serveSlack    = 4
	serveMaxBatch = 8
	serveWindow   = 2 * time.Millisecond
	serveStreams  = 64
	sharedRetain  = 1 << 20
	traceRing     = 8
)

// Arrival rates, fixed against this benchmark's first commit on a
// 2-CPU host, where serve-classify's overload phase completed 600-850
// classify/s: overload runs at about 1.5x that, the nominal phase at
// an eighth (at a third to a half, queueing turned the host's
// run-to-run speed changes into 15-30% swings of the median).
const (
	classifyNominalRate  = 100.0
	classifyOverloadRate = 1300.0
	mixedGenerateRate    = 50.0
	mixedClassifyRate    = 100.0
	mixedGenBestEffort   = 0.25 // share of generate requests with Priority -1
	saturationClients    = 8
)

// fleetSys is one set-up serving stack.
type fleetSys struct {
	dir     string
	fleet   *sti.Fleet
	hub     *sti.ObsHub
	sched   *sti.Scheduler
	pools   pools
	refs    *refs
	planDur time.Duration
}

func (s *fleetSys) planTime() time.Duration { return s.planDur }

func (s *fleetSys) close() {
	if s.sched != nil {
		s.sched.Close()
	}
	if s.fleet != nil {
		_ = s.fleet.Remove(modelName) // retires the replica pool; nothing left to replan
	}
	os.RemoveAll(s.dir)
}

// setupFleet preprocesses TinyConfig, loads it into a fleet configured
// as sti-serve's defaults (budget 256 KB, 1 replica, queue 64, 2
// workers, maxbatch 8, batch window 2ms, slack 4, tracing hub on),
// replans, and builds the references for every input of p on every
// tier.
func setupFleet(e *env, p pools) (*fleetSys, error) {
	dir, err := os.MkdirTemp(e.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	s := &fleetSys{dir: dir, pools: p}
	fail := func(err error) (*fleetSys, error) {
		s.close()
		return nil, err
	}
	if _, err := sti.Preprocess(dir, sti.NewRandomModel(sti.TinyConfig(), modelSeed), nil); err != nil {
		return fail(err)
	}
	sys, err := sti.Load(dir, sti.Odroid(), 0)
	if err != nil {
		return fail(err)
	}
	s.fleet = sti.NewFleet(preloadBudget)
	if err := s.fleet.Add(modelName, sys, serveTarget, 1); err != nil {
		return fail(err)
	}
	if err := s.fleet.SetReplicas(modelName, 1); err != nil {
		return fail(err)
	}
	if err := s.fleet.ConfigureReplicas(modelName, sti.ReplicaOptions{MaxStreams: serveStreams}); err != nil {
		return fail(err)
	}
	if err := s.fleet.SetSharedCacheRetain(modelName, sharedRetain); err != nil {
		return fail(err)
	}
	start := time.Now()
	if err := s.fleet.Replan(); err != nil {
		return fail(err)
	}
	s.planDur = time.Since(start)
	s.hub = sti.NewObsHub(traceRing)
	s.hub.SetTracing(true)
	obs.RegisterRuntimeMetrics(s.hub.Registry())
	s.fleet.SetObservability(s.hub)
	s.sched = sti.NewScheduler(s.fleet, sti.ServeOptions{
		QueueDepth: serveQueue, Workers: serveWorkers, Slack: serveSlack,
		MaxBatch: serveMaxBatch, BatchWindow: serveWindow,
		MaxStreams: serveStreams, Obs: s.hub,
	})
	if s.refs, err = buildRefs(context.Background(), s.fleet, modelName, p); err != nil {
		return fail(err)
	}
	return s, nil
}

// submit sends one request the way sti-serve's handler does: a trace
// opened on the hub rides the context through Submit and is offered to
// the exemplar ring when the request finishes.
func (s *fleetSys) submit(req sti.Request) (*sti.ServeResult, error) {
	ctx, tr := s.hub.StartRequest(context.Background(), "")
	if tr != nil {
		tr.Model = modelName
	}
	res, err := s.sched.Submit(ctx, modelName, req)
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	s.hub.FinishRequest(tr, modelName, "", errStr)
	return res, err
}

// call is one request: the input and SLO class drawn for it, and what
// send kept of its answer. send checks each answer against its
// reference as it arrives and keeps only this fixed-size summary, never
// the ServeResult, so what the benchmark holds per call is small and
// the same whatever the answer (peak_heap_mb measures the program plus
// a constant, see heldMB).
type call struct {
	in         int32 // index of the input in its pool
	maxNew     int16 // generate: new tokens asked for
	generate   bool
	tight      bool // TargetLatency half the default
	bestEffort bool // Priority -1
	due        time.Time
	err        error         // Submit's error, or why the answer was rejected
	sent, done time.Duration // after due

	// From the ServeResult of a correct answer.
	queued, total       time.Duration
	batch               int32
	downgraded, tierHit bool
	fidelity            float64
	hasExec             bool // classify stream stats follow
	stall, io, comp     time.Duration
	preloadHit          float64 // preload-buffer hits over the plan's shards
	streamKB            float64 // stream bytes read over the batch
	stepSum             time.Duration
	steps               int32
	ntok                int32
	tokens              [refMaxNew]float32 // ms after due of each token
}

func (c *call) slo() time.Duration {
	if c.tight {
		return serveTarget / 2
	}
	return serveTarget
}

func (c *call) latency() time.Duration { return c.done }

// request builds the request c stands for from the pools.
func (c *call) request(p pools) sti.Request {
	req := sti.Request{Task: sti.TaskClassify, Tokens: p.classify[c.in]}
	if c.generate {
		req = sti.Request{Task: sti.TaskGenerate, Tokens: p.prompts[c.in], MaxNewTokens: int(c.maxNew)}
	}
	if c.tight {
		req.TargetLatency = c.slo()
	}
	if c.bestEffort {
		req.Priority = -1
	}
	return req
}

// refused reports the designed overload outcomes: shed at admission or
// out of deadline.
func (c *call) refused() bool {
	return errors.Is(c.err, sti.ErrQueueFull) || errors.Is(c.err, sti.ErrDeadline)
}

// Input pools: requests draw their inputs from seeded pools, so the
// references are a few hundred forward passes (see refs).
const (
	classifyPool = 256
	promptPool   = 48
)

type pools struct {
	classify [][]int // 2..32 tokens
	prompts  [][]int // 2..12 tokens
}

func newPools(rng *rand.Rand, vocab int) pools {
	var p pools
	for i := 0; i < classifyPool; i++ {
		p.classify = append(p.classify, randomTokens(rng, 2, 32, vocab))
	}
	for i := 0; i < promptPool; i++ {
		p.prompts = append(p.prompts, randomTokens(rng, 2, 12, vocab))
	}
	return p
}

// classifyCall draws one classify request of the SLO mix: a third
// tight (half the default target), a third default, a third
// best-effort (Priority -1).
func (p pools) classifyCall(rng *rand.Rand) call {
	c := call{in: int32(rng.Intn(len(p.classify)))}
	switch rng.Intn(3) {
	case 0:
		c.tight = true
	case 2:
		c.bestEffort = true
	}
	return c
}

// generateCall draws one generate request: 4..20 new tokens, a
// best-effort share.
func (p pools) generateCall(rng *rand.Rand) call {
	c := call{in: int32(rng.Intn(len(p.prompts))), generate: true, maxNew: int16(4 + rng.Intn(refMaxNew-3))}
	c.bestEffort = rng.Float64() < mixedGenBestEffort
	return c
}

func randomTokens(rng *rand.Rand, lo, hi, vocab int) []int {
	toks := make([]int, lo+rng.Intn(hi-lo+1))
	for i := range toks {
		toks[i] = rng.Intn(vocab)
	}
	return toks
}

// send submits c, timing it from its due time and recording token
// arrivals for generate, then checks the answer and keeps its summary.
// OnToken runs on the stream's one emitter goroutine, and every token
// is delivered before Submit returns, so c.tokens needs no lock.
func (s *fleetSys) send(c *call) {
	req := c.request(s.pools)
	if c.generate {
		req.OnToken = func(step, token int) {
			if int(c.ntok) < len(c.tokens) {
				c.tokens[c.ntok] = float32(ms(time.Since(c.due)))
				c.ntok++
			}
		}
	}
	sent := time.Now()
	res, err := s.submit(req)
	c.done = time.Since(c.due)
	c.sent = sent.Sub(c.due)
	if err == nil {
		err = s.keep(c, res)
	}
	c.err = err
}

var errMismatch = errors.New("answer differs from the reference")

// keep checks a served answer against its tier's reference, then
// copies what the metrics need out of the result.
func (s *fleetSys) keep(c *call, res *sti.ServeResult) error {
	if res.Tier == nil {
		return errors.New("served request carries no tier")
	}
	if c.generate {
		want, err := s.refs.generate(res.Tier.Target, int(c.in))
		if err != nil {
			return err
		}
		if !sameDecode(res.GeneratedTokens, want, s.pools.prompts[c.in], int(c.maxNew)) {
			return errMismatch
		}
	} else {
		want, err := s.refs.classify(res.Tier.Target, int(c.in))
		if err != nil {
			return err
		}
		if !sameLogits(res.Logits, want) {
			return errMismatch
		}
	}
	c.queued, c.total = res.Queued, res.Total
	c.batch = int32(res.Batch)
	c.fidelity = res.Tier.Fidelity
	c.downgraded, c.tierHit = res.Tier.Downgraded, res.Tier.CacheHit
	if st := res.Stats; st != nil && !c.generate {
		c.hasExec = true
		c.stall, c.io, c.comp = st.Stall, sum(st.LayerIO), sum(st.LayerCompute)
		if shards := s.refs.shards(res.Tier.Target); shards > 0 {
			c.preloadHit = float64(st.CacheHits) / float64(shards)
		}
		c.streamKB = float64(st.BytesRead) / 1024 / float64(max(res.Batch, 1))
	}
	if res.Gen != nil {
		c.stepSum, c.steps = sum(res.Gen.StepCompute), int32(len(res.Gen.StepCompute))
	}
	return nil
}

// openPhase runs one open-loop phase: the calls' due times are fixed in
// advance and each is sent on time whatever the system is doing.
func (s *fleetSys) openPhase(calls []call, offsets []time.Duration) []time.Duration {
	start := time.Now().Add(time.Millisecond)
	for i := range calls {
		calls[i].due = start.Add(offsets[i])
	}
	return openLoop(start, offsets, func(i int, _ time.Time) { s.send(&calls[i]) })
}

// tally counts a phase's outcomes and sums the fidelity of its correct
// answers.
type tally struct {
	phaseCount
	fidelity float64
	firstErr error // the first failure that is not a designed refusal
}

func (t *tally) add(c *call) {
	t.Sent++
	switch {
	case c.err == nil:
		t.Succeeded++
		t.fidelity += c.fidelity
	case c.refused():
		t.Refused++
	default:
		t.Failed++
		if t.firstErr == nil {
			t.firstErr = c.err
		}
	}
}

func tallyOf(name string, calls []call) *tally {
	t := &tally{phaseCount: phaseCount{Name: name}}
	for i := range calls {
		t.add(&calls[i])
	}
	return t
}

// finishPhases records the phases' counts in r, failures (wrong answers
// included) as failed, and returns the mean fidelity of the correct
// answers.
func finishPhases(r *report, ts ...*tally) float64 {
	var fid float64
	ok := 0
	for _, t := range ts {
		r.phases = append(r.phases, t.phaseCount)
		r.attempted += t.Sent
		r.failed += t.Failed
		if t.firstErr != nil && r.firstErr == nil {
			r.firstErr = t.firstErr
		}
		fid += t.fidelity
		ok += t.Succeeded
	}
	if ok == 0 {
		return 0
	}
	return fid / float64(ok)
}

// latencies returns each call's latency from its due time in ms, a
// failed or refused call ranking as missing every limit (+Inf).
func latencies(calls []call) []float64 {
	out := make([]float64, 0, len(calls))
	for i := range calls {
		if calls[i].err != nil {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(calls[i].latency()))
	}
	return out
}

// missedLimit is what a percentile that lands on a failed or refused
// request reads: the longest deadline any request of these workloads
// has (slack x the relaxed tier), so the figure stays finite and worse
// than any served request.
var missedLimit = ms(serveSlack * 2 * serveTarget)

func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return missedLimit
	}
	return v
}

// classifyStats fills the classify latency metrics of a report from an
// open-loop classify stream. The gated p50 is the plain median; the
// printed tails are medians over time-ordered chunks (p90 over chunks
// of 200 requests, about two seconds of traffic, p99 over chunks of
// 1000; see chunkedPercentile), so one transient stall of the host
// moves one chunk's figure, not the run's.
func classifyStats(r *report, calls []call) error {
	lat := latencies(calls)
	if len(lat) == 0 {
		return fmt.Errorf("no classify requests")
	}
	p50 := finite(median(append([]float64(nil), lat...)))
	r.e2e["classify_p50_ms"] = p50
	r.name("classify_p50_ms", p50, "ms")
	for _, q := range []struct {
		p     float64
		chunk int
	}{{90, 200}, {99, 1000}} {
		// A short run may not support a tail; it is then left out.
		if v, ok := chunkedPercentile(lat, q.p, q.chunk); ok {
			r.name(fmt.Sprintf("classify_p%v_ms", q.p), finite(v), "ms")
		}
	}
	return nil
}

// perSecond counts events in each whole second of a phase of length
// dur (at is an event's offset from the phase start) and returns the
// median count: the phase's rate with transient host stalls outvoted.
func perSecond(at []time.Duration, dur time.Duration) float64 {
	n := int(dur / time.Second)
	if n == 0 {
		return 0
	}
	counts := make([]float64, n)
	for _, a := range at {
		if i := int(a / time.Second); i >= 0 && i < n {
			counts[i]++
		}
	}
	return median(counts)
}

// serveLayers fills the scheduler, fleet, pipeline and store layer
// metrics from the served calls, and the traced run's spans.
func serveLayers(e *env, r *report, calls []call, before, after sti.ShardCacheStats) {
	var queue, exec, batch, hits []float64
	refused, deadline, downgraded, tierHit, served := 0, 0, 0, 0, 0
	var stall, io, comp []float64
	var stepSum time.Duration
	steps := 0
	for i := range calls {
		c := &calls[i]
		switch {
		case errors.Is(c.err, sti.ErrQueueFull):
			refused++
		case errors.Is(c.err, sti.ErrDeadline):
			deadline++
		}
		if c.err != nil {
			continue
		}
		served++
		queue = append(queue, ms(c.queued))
		exec = append(exec, ms(c.total-c.queued))
		if !c.generate {
			batch = append(batch, float64(c.batch))
		}
		if c.hasExec {
			stall = append(stall, ms(c.stall))
			io = append(io, ms(c.io))
			comp = append(comp, ms(c.comp))
			hits = append(hits, c.preloadHit)
		}
		stepSum += c.stepSum
		steps += int(c.steps)
		if c.downgraded {
			downgraded++
		}
		if c.tierHit {
			tierHit++
		}
		if e.rec != nil {
			req := uint64(i)
			sent := c.due.Add(c.sent)
			root := e.rec.add(req, -1, "serve.Submit", sent, c.due.Add(c.done))
			e.rec.add(req, root, "serve.queue", sent, sent.Add(c.queued))
			e.rec.add(req, root, "fleet.exec", sent.Add(c.queued), sent.Add(c.total))
		}
	}
	sent := float64(len(calls))
	r.layer["serve.queue_wait_p50_ms"] = median(queue)
	r.layer["serve.queue_wait_p99_ms"], _ = percentile(queue, 99)
	r.layer["serve.batch_mean"] = mean(batch)
	r.layer["serve.refused_frac"] = float64(refused) / sent
	r.layer["serve.deadline_frac"] = float64(deadline) / sent
	if served > 0 {
		r.layer["serve.downgraded_frac"] = float64(downgraded) / float64(served)
		r.layer["fleet.tier_hit_ratio"] = float64(tierHit) / float64(served)
	}
	r.layer["fleet.exec_p50_ms"] = median(exec)
	r.layer["fleet.exec_p99_ms"], _ = percentile(exec, 99)
	r.layer["pipeline.stall_ms"] = mean(stall)
	r.layer["pipeline.io_ms"] = mean(io)
	r.layer["pipeline.compute_ms"] = mean(comp)
	r.layer["pipeline.preload_hit_ratio"] = mean(hits)
	if steps > 0 {
		r.layer["batcher.step_ms"] = ms(stepSum) / float64(steps)
	}
	r.layer["store.flash_kb_per_req"] = float64(after.BytesRead-before.BytesRead) / 1024 / float64(max(served, 1))
	if reqs := after.Requests - before.Requests; reqs > 0 {
		r.layer["store.cache_hit_ratio"] = float64(after.Hits()-before.Hits()) / float64(reqs)
	}
}

// decodeEvery spaces the traced run's decode replays: every
// decodeEvery-th served classify request has store.DecodePayload timed
// over one stream's payloads of the default tier.
const decodeEvery = 16

func (s *fleetSys) decodeReplay(e *env, r *report, calls []call) error {
	if e.rec == nil {
		return nil
	}
	en, ok := s.fleet.Entry(modelName)
	if !ok {
		return fmt.Errorf("fleet lost model %q", modelName)
	}
	payloads, err := streamPayloads(en.System.Store, en.Plan)
	if err != nil {
		return err
	}
	var dec []float64
	n := 0
	for i := range calls {
		if calls[i].err != nil || calls[i].generate {
			continue
		}
		if n++; n%decodeEvery != 1 {
			continue
		}
		d, err := decodeSpans(e.rec, uint64(i), payloads)
		if err != nil {
			return err
		}
		dec = append(dec, ms(d))
	}
	r.layer["store.decode_ms"] = mean(dec)
	return nil
}

// lagP99 is loadgen.lag_p99_ms over every open-loop send.
func lagP99(lags []time.Duration) float64 {
	xs := make([]float64, len(lags))
	for i, l := range lags {
		xs[i] = ms(l)
	}
	v, ok := percentile(xs, 99)
	if !ok {
		return 0
	}
	return v
}

// streamKB is the mean over served classify calls of the shard bytes
// their stream read from the store layer, shared across its batch.
func streamKB(calls []call) float64 {
	var kb []float64
	for i := range calls {
		if calls[i].err == nil && calls[i].hasExec {
			kb = append(kb, calls[i].streamKB)
		}
	}
	return mean(kb)
}

// heldMB estimates what the benchmark itself holds live during the
// measured phases, inside peak_heap_mb: the call records, the due-time
// schedules and the reference answers. It depends on the seed and
// --seconds, not on the program.
func heldMB(calls int, s *fleetSys) float64 {
	return float64(calls*int(unsafe.Sizeof(call{})+8)+s.refs.bytes()) / (1 << 20)
}

func runServeClassify(e *env) (*report, error) {
	rng := rand.New(rand.NewSource(e.seed))
	cfg := sti.TinyConfig()
	nominalDur := e.seconds * 3 / 5
	overloadDur := e.seconds - nominalDur
	// The whole schedule and every input are drawn before set-up, so
	// the system sees only generated inputs.
	phases := []struct {
		name string
		due  []time.Duration
	}{
		{"nominal", poissonSchedule(rng, classifyNominalRate, nominalDur)},
		{"overload", poissonSchedule(rng, classifyOverloadRate, overloadDur)},
	}
	pool := newPools(rng, cfg.Vocab)
	calls := make([][]call, len(phases))
	for p, ph := range phases {
		calls[p] = make([]call, len(ph.due))
		for i := range calls[p] {
			calls[p][i] = pool.classifyCall(rng)
		}
	}

	s, setup, err := repeatSetup(func() (*fleetSys, error) { return setupFleet(e, pool) })
	if err != nil {
		return nil, err
	}
	defer s.close()

	before, _ := s.fleet.SharedCacheStats(modelName)
	probe := startRuntimeProbe(nil)
	var lags []time.Duration
	var nominalCPU time.Duration
	for p, ph := range phases {
		cpu0 := processCPU()
		lags = append(lags, s.openPhase(calls[p], ph.due)...)
		if p == 0 {
			nominalCPU = processCPU() - cpu0
		}
	}
	rt := probe.finish()
	after, _ := s.fleet.SharedCacheStats(modelName)

	r := newReport()
	nominal, overload := tallyOf("nominal", calls[0]), tallyOf("overload", calls[1])
	fid := finishPhases(r, nominal, overload)
	if err := classifyStats(r, calls[0]); err != nil {
		return nil, fmt.Errorf("nominal phase: %w", err)
	}
	var good, done []time.Duration // due offsets of completions (within their SLO)
	for i := range calls[1] {
		if c := &calls[1][i]; c.err == nil {
			done = append(done, phases[1].due[i])
			if c.latency() <= c.slo() {
				good = append(good, phases[1].due[i])
			}
		}
	}
	all := append(append([]call(nil), calls[0]...), calls[1]...)
	r.e2e["setup_s"] = setup.seconds
	r.e2e["fidelity"] = fid
	r.e2e["stream_kb_per_req"] = streamKB(all)
	r.addRuntime(rt, nominal.Succeeded+overload.Succeeded)
	r.e2e["cpu_ms_per_req"] = ms(nominalCPU) / float64(max(nominal.Succeeded, 1))
	r.name("classify_goodput_rps", perSecond(good, overloadDur), "1/s")
	r.name("classify_overload_rps", perSecond(done, overloadDur), "1/s")
	r.name("bench_held_mb", heldMB(len(all), s), "MB")

	serveLayers(e, r, all, before, after)
	r.layer["planner.plan_ms"] = setup.planMs
	r.layer["loadgen.lag_p99_ms"] = lagP99(lags)
	if err := s.decodeReplay(e, r, all); err != nil {
		return nil, err
	}
	return r, nil
}

// satTally folds in the saturation phase's calls as they finish. How
// many calls the phase completes depends on the system, so it keeps no
// record per call (the traced run excepted, whose spans and layer
// metrics need them): what the benchmark holds does not grow with the
// program's throughput.
type satTally struct {
	mu     sync.Mutex
	tally  tally
	start  time.Time
	perSec []float64 // tokens of correct streams arriving in each second
	kept   []call    // traced run only
	keep   bool
}

func newSatTally(start time.Time, dur time.Duration, keep bool) *satTally {
	return &satTally{
		tally:  tally{phaseCount: phaseCount{Name: "saturation"}},
		start:  start,
		perSec: make([]float64, int(dur/time.Second)),
		keep:   keep,
	}
}

func (t *satTally) add(c *call) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tally.add(c)
	if c.err == nil {
		for _, tok := range c.tokens[:c.ntok] {
			at := c.due.Sub(t.start) + time.Duration(float64(tok)*float64(time.Millisecond))
			if i := int(at / time.Second); i >= 0 && i < len(t.perSec) {
				t.perSec[i]++
			}
		}
	}
	if t.keep {
		t.kept = append(t.kept, *c)
	}
}

func runServeMixed(e *env) (*report, error) {
	rng := rand.New(rand.NewSource(e.seed))
	cfg := sti.TinyConfig()
	openDur := e.seconds * 13 / 20
	satDur := e.seconds - openDur
	genDue := poissonSchedule(rng, mixedGenerateRate, openDur)
	clsDue := poissonSchedule(rng, mixedClassifyRate, openDur)
	pool := newPools(rng, cfg.Vocab)
	gens := make([]call, len(genDue))
	for i := range gens {
		gens[i] = pool.generateCall(rng)
	}
	clss := make([]call, len(clsDue))
	for i := range clss {
		clss[i] = pool.classifyCall(rng)
	}
	// Saturation clients draw from their own seeded streams: how many
	// requests each completes depends on the system, the inputs do not.
	satRngs := make([]*rand.Rand, saturationClients)
	for i := range satRngs {
		satRngs[i] = rand.New(rand.NewSource(rng.Int63()))
	}

	s, setup, err := repeatSetup(func() (*fleetSys, error) { return setupFleet(e, pool) })
	if err != nil {
		return nil, err
	}
	defer s.close()

	genBefore, _ := s.fleet.GenerateStats(modelName)
	before, _ := s.fleet.SharedCacheStats(modelName)
	var kvPeak func() float64
	if e.rec != nil {
		kvPeak = func() float64 {
			st, _ := s.fleet.GenerateStats(modelName)
			return float64(st.KVBytes)
		}
	}
	probe := startRuntimeProbe(kvPeak)

	// Open-loop phase: both streams run at once, each from its own
	// dispatcher.
	var lags [2][]time.Duration
	var wg sync.WaitGroup
	openCPU := processCPU()
	for k, pair := range []struct {
		calls []call
		due   []time.Duration
	}{{gens, genDue}, {clss, clsDue}} {
		wg.Add(1)
		go func(k int, calls []call, due []time.Duration) {
			defer wg.Done()
			lags[k] = s.openPhase(calls, due)
		}(k, pair.calls, pair.due)
	}
	wg.Wait()
	openCPU = processCPU() - openCPU

	// Saturation phase: closed-loop generate clients, no think time.
	satStart := time.Now()
	satEnd := satStart.Add(satDur)
	sat := newSatTally(satStart, satDur, e.rec != nil)
	for i := 0; i < saturationClients; i++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for time.Now().Before(satEnd) {
				c := pool.generateCall(rng)
				c.due = time.Now()
				s.send(&c)
				sat.add(&c)
			}
		}(satRngs[i])
	}
	wg.Wait()
	rt := probe.finish()
	after, _ := s.fleet.SharedCacheStats(modelName)
	genAfter, _ := s.fleet.GenerateStats(modelName)

	r := newReport()
	openGen, openCls := tallyOf("open-generate", gens), tallyOf("open-classify", clss)
	fid := finishPhases(r, openGen, openCls, &sat.tally)
	if err := classifyStats(r, clss); err != nil {
		return nil, fmt.Errorf("classify stream: %w", err)
	}
	all := append(append(append([]call(nil), gens...), clss...), sat.kept...)
	r.e2e["setup_s"] = setup.seconds
	r.e2e["fidelity"] = fid
	r.e2e["stream_kb_per_req"] = streamKB(all)
	r.addRuntime(rt, openGen.Succeeded+openCls.Succeeded+sat.tally.Succeeded)
	r.e2e["cpu_ms_per_req"] = ms(openCPU) / float64(max(openGen.Succeeded+openCls.Succeeded, 1))
	ttft, itl := genTimings(gens)
	for _, q := range []struct {
		name string
		xs   []float64
		p    float64
	}{{"gen_ttft_p50_ms", ttft, 50}, {"gen_ttft_p99_ms", ttft, 99}, {"gen_itl_p50_ms", itl, 50}, {"gen_itl_p99_ms", itl, 99}} {
		// The highest percentile the sample supports: p90 when too few
		// streams ran for p99.
		name, p := q.name, q.p
		v, ok := percentile(append([]float64(nil), q.xs...), p)
		if !ok && p == 99 {
			name, p = strings.Replace(name, "p99", "p90", 1), 90
			v, ok = percentile(append([]float64(nil), q.xs...), p)
		}
		if ok {
			r.name(name, v, "ms")
		}
	}
	r.name("gen_tok_s", median(sat.perSec), "1/s")
	r.name("bench_held_mb", heldMB(len(gens)+len(clss), s), "MB")

	serveLayers(e, r, all, before, after)
	r.layer["planner.plan_ms"] = setup.planMs
	r.layer["loadgen.lag_p99_ms"] = lagP99(append(lags[0], lags[1]...))
	steps := float64(genAfter.Steps - genBefore.Steps)
	if steps > 0 {
		r.layer["batcher.streams_per_step"] = float64(genAfter.StepSequences-genBefore.StepSequences) / steps
	}
	if adm := float64(genAfter.Admitted - genBefore.Admitted); adm > 0 {
		r.layer["batcher.preempted_frac"] = float64(genAfter.Preempted-genBefore.Preempted) / adm
	}
	if out := float64(genAfter.TokensOut - genBefore.TokensOut); out > 0 {
		r.layer["batcher.recomputed_frac"] = float64(genAfter.RecomputedTokens-genBefore.RecomputedTokens) / out
	}
	r.layer["batcher.kv_peak_kb"] = rt.extraPeak / 1024
	if err := s.decodeReplay(e, r, all); err != nil {
		return nil, err
	}
	return r, nil
}

// genTimings returns time to first token (from the due time) and the
// gaps between tokens of the successful generate calls, in ms.
func genTimings(calls []call) (ttft, itl []float64) {
	for i := range calls {
		c := &calls[i]
		if c.err != nil || c.ntok == 0 {
			continue
		}
		ttft = append(ttft, float64(c.tokens[0]))
		for j := 1; j < int(c.ntok); j++ {
			itl = append(itl, float64(c.tokens[j]-c.tokens[j-1]))
		}
	}
	return ttft, itl
}
