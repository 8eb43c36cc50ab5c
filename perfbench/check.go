package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sti"
)

// refs holds the non-pipelined reference answers for every input of a
// workload's pools on every plan tier a fleet serves: each tier's plan
// is assembled by Engine.Materialize into a submodel, and its answers
// come from the model package's plain (unbatched, unpipelined) forward
// passes. Served answers must equal them bit for bit. Tiers whose plans
// select the same shard versions share one set of answers. Everything
// is computed in set-up and read-only afterwards; the submodels are
// dropped once their answers are in, so a run holds only the answers.
type refs struct {
	sig    map[time.Duration]string // tier target → plan signature
	shardN map[time.Duration]int    // tier target → shards one stream decodes
	logits map[string][][]float32   // signature → answer per classify input
	gens   map[string][][]int       // signature → decode per prompt
}

// refMaxNew is how many tokens a generate reference decodes; a served
// decode of maxNew <= refMaxNew tokens must be its prefix (greedy
// decoding is deterministic step by step).
const refMaxNew = 20

// buildRefs materializes every tier in the fleet's current ladder for
// the named model and computes its answer to every input of p.
func buildRefs(ctx context.Context, fleet *sti.Fleet, name string, p pools) (*refs, error) {
	e, ok := fleet.Entry(name)
	if !ok {
		return nil, fmt.Errorf("fleet has no model %q", name)
	}
	r := &refs{
		sig:    make(map[time.Duration]string),
		shardN: make(map[time.Duration]int),
		logits: make(map[string][][]float32),
		gens:   make(map[string][][]int),
	}
	for _, t := range e.Tiers {
		sig := fmt.Sprint(t.Plan.Slices, t.Plan.Bits)
		r.sig[t.Target], r.shardN[t.Target] = sig, t.Plan.ShardCount()
		if _, ok := r.logits[sig]; ok {
			continue
		}
		sm, _, err := e.System.Engine.Materialize(ctx, t.Plan)
		if err != nil {
			return nil, fmt.Errorf("materializing tier %v: %w", t.Target, err)
		}
		logits := make([][]float32, len(p.classify))
		gens := make([][]int, len(p.prompts))
		err = parallel(len(logits)+len(gens), func(i int) error {
			if i < len(logits) {
				logits[i] = sm.Logits(p.classify[i], nil)
				return nil
			}
			i -= len(logits)
			var err error
			gens[i], err = sm.Generate(p.prompts[i], refMaxNew)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.logits[sig], r.gens[sig] = logits, gens
	}
	return r, nil
}

// parallel runs f(0..n-1) on GOMAXPROCS goroutines (a submodel's
// forward passes only read it) and returns the first error.
func parallel(n int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n && errs[w] == nil; i = int(next.Add(1)) - 1 {
				errs[w] = f(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *refs) lookup(target time.Duration) (string, error) {
	sig, ok := r.sig[target]
	if !ok {
		return "", fmt.Errorf("no reference for tier %v", target)
	}
	return sig, nil
}

// classify returns the reference logits of classify input in on a tier.
func (r *refs) classify(target time.Duration, in int) ([]float32, error) {
	sig, err := r.lookup(target)
	if err != nil {
		return nil, err
	}
	return r.logits[sig][in], nil
}

// generate returns the reference greedy decode (prompt + refMaxNew
// tokens, stopping at MaxSeq) of prompt in on a tier.
func (r *refs) generate(target time.Duration, in int) ([]int, error) {
	sig, err := r.lookup(target)
	if err != nil {
		return nil, err
	}
	return r.gens[sig][in], nil
}

// shards returns how many shards one stream of a tier's plan decodes.
func (r *refs) shards(target time.Duration) int { return r.shardN[target] }

// bytes estimates the memory the references hold.
func (r *refs) bytes() int {
	n := 0
	for _, ls := range r.logits {
		for _, l := range ls {
			n += 24 + 4*len(l)
		}
	}
	for _, gs := range r.gens {
		for _, g := range gs {
			n += 24 + 8*len(g)
		}
	}
	return n
}

// sameLogits reports whether two logit vectors are bit-identical.
func sameLogits(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return true
}

// sameDecode reports whether a served decode of maxNew tokens after
// prompt is the matching prefix of the reference decode want.
func sameDecode(got, want, prompt []int, maxNew int) bool {
	n := min(len(prompt)+maxNew, len(want))
	if len(got) != n {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
