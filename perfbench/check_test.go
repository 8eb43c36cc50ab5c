package main

import (
	"context"
	"math"
	"testing"
	"time"

	"sti"
)

// servedFleet is a planned one-model fleet over a TinyConfig store.
func servedFleet(t *testing.T) *sti.Fleet {
	t.Helper()
	dir := t.TempDir()
	if _, err := sti.Preprocess(dir, sti.NewRandomModel(sti.TinyConfig(), modelSeed), nil); err != nil {
		t.Fatal(err)
	}
	sys, err := sti.Load(dir, sti.Odroid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := sti.NewFleet(preloadBudget)
	if err := f.Add(modelName, sys, serveTarget, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Replan(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Remove(modelName) })
	return f
}

// A served classify matches its reference bit for bit, and the check
// catches the same answer perturbed by one ULP.
func TestCheckCatchesPerturbedLogits(t *testing.T) {
	f := servedFleet(t)
	tokens := []int{1, 9, 8, 7, 2, 33, 5}
	r, err := buildRefs(context.Background(), f, modelName, pools{classify: [][]int{tokens}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.Serve(context.Background(), modelName, sti.Request{Task: sti.TaskClassify, Tokens: tokens})
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.classify(resp.Tier.Target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameLogits(resp.Logits, want) {
		t.Fatalf("served logits %v differ from the reference %v", resp.Logits, want)
	}
	bad := append([]float32(nil), resp.Logits...)
	bad[0] = math.Float32frombits(math.Float32bits(bad[0]) + 1)
	if sameLogits(bad, want) {
		t.Fatal("a one-ULP perturbation passed the check")
	}
	if sameLogits(resp.Logits[:1], want) {
		t.Fatal("a truncated answer passed the check")
	}
}

// A served decode is the prefix of its reference decode, and the check
// catches a changed token and a short decode.
func TestCheckCatchesPerturbedDecode(t *testing.T) {
	f := servedFleet(t)
	prompt := []int{3, 14, 15, 9}
	r, err := buildRefs(context.Background(), f, modelName, pools{prompts: [][]int{prompt}})
	if err != nil {
		t.Fatal(err)
	}
	const maxNew = 10
	resp, err := f.Serve(context.Background(), modelName, sti.Request{Task: sti.TaskGenerate, Tokens: prompt, MaxNewTokens: maxNew})
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.generate(resp.Tier.Target, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.GeneratedTokens
	if len(got) != len(prompt)+maxNew || !sameDecode(got, want, prompt, maxNew) {
		t.Fatalf("served decode %v is not the reference prefix of %v", got, want)
	}
	bad := append([]int(nil), got...)
	bad[len(bad)-1]++
	if sameDecode(bad, want, prompt, maxNew) {
		t.Fatal("a changed token passed the check")
	}
	if sameDecode(got[:len(got)-1], want, prompt, maxNew) {
		t.Fatal("a decode one token short passed the check")
	}
}

func TestRefsUnknownTier(t *testing.T) {
	r, err := buildRefs(context.Background(), servedFleet(t), modelName, pools{classify: [][]int{{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.classify(time.Hour, 0); err == nil {
		t.Fatal("reference for a tier never materialized: want error")
	}
}
