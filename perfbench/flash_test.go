package main

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"sti"
	"sti/internal/device"
	"sti/internal/store"
)

// slowDevice is a profile whose transfer term dominates the sleep
// granularity, so the timing checks below measure the model, not the
// scheduler.
func slowDevice() *device.Profile {
	d := device.Odroid()
	d.Bandwidth = 0.5e6 // 0.5 MB/s: a layer job of TinyConfig takes ~30ms
	return d
}

func tinyStore(t *testing.T) *store.Store {
	t.Helper()
	dir := t.TempDir()
	if _, err := sti.Preprocess(dir, sti.NewRandomModel(sti.TinyConfig(), 5), nil); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// withinTIO checks the stated accuracy of the emulation: a layer job
// takes TIO of its bytes, give or take 10% plus 2ms of sleep overshoot.
func withinTIO(t *testing.T, what string, got, want time.Duration) {
	t.Helper()
	lo := want * 95 / 100
	hi := want*110/100 + 2*time.Millisecond
	if got < lo || got > hi {
		t.Errorf("%s took %v; want TIO %v (within [%v, %v])", what, got, want, lo, hi)
	}
}

func TestFlashPassesPayloadsThrough(t *testing.T) {
	st := tinyStore(t)
	f := newFlashReader(st, device.Odroid())
	cfg := st.Man.Config
	for l := 0; l < cfg.Layers; l++ {
		for s := 0; s < cfg.Heads; s++ {
			for _, b := range st.Man.Bitwidths {
				want, err := st.ReadShardPayload(l, s, b)
				if err != nil {
					t.Fatal(err)
				}
				got, err := f.ReadShardPayload(l, s, b)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("shard (%d,%d)@%d: payload changed by the flash emulation", l, s, b)
				}
			}
		}
	}
	if _, err := f.ReadShardPayload(99, 0, 2); err == nil {
		t.Fatal("read of a missing layer: want the store's error")
	}
}

func TestFlashLayerJobMatchesTIO(t *testing.T) {
	st := tinyStore(t)
	dev := slowDevice()
	f := newFlashReader(st, dev)
	cfg := st.Man.Config
	bits := st.Man.Bitwidths[len(st.Man.Bitwidths)-1]
	var want time.Duration
	start := time.Now()
	for l := 0; l < 2; l++ { // two layer jobs, one overhead each
		size := 0
		for s := 0; s < cfg.Heads; s++ {
			p, err := f.ReadShardPayload(l, s, bits)
			if err != nil {
				t.Fatal(err)
			}
			size += len(p)
		}
		want += dev.TIO(size)
	}
	withinTIO(t, "two layer jobs", time.Since(start), want)
	if bytes, reads, _ := f.take(); reads != 2*cfg.Heads || bytes == 0 {
		t.Fatalf("counters: %d reads, %d bytes", reads, bytes)
	}

	// newJob charges the overhead again for the same layer.
	p, err := f.ReadShardPayload(1, 0, bits)
	if err != nil {
		t.Fatal(err)
	}
	f.newJob()
	start = time.Now()
	if _, err := f.ReadShardPayload(1, 0, bits); err != nil {
		t.Fatal(err)
	}
	withinTIO(t, "a new job on the same layer", time.Since(start), dev.TIO(len(p)))
}

// A layer job issued after the device sat idle pays its full TIO: the
// idle time is not banked as transfer done in advance.
func TestFlashReadAfterIdleGapPaysTIO(t *testing.T) {
	st := tinyStore(t)
	dev := slowDevice()
	f := newFlashReader(st, dev)
	cfg := st.Man.Config
	bits := st.Man.Bitwidths[len(st.Man.Bitwidths)-1]
	if _, err := f.ReadShardPayload(0, 0, bits); err != nil {
		t.Fatal(err)
	}
	// An idle gap a third of the layer job that follows: credited as
	// transfer time, it would finish the job well short of TIO.
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	size := 0
	for s := 0; s < cfg.Heads; s++ {
		p, err := f.ReadShardPayload(1, s, bits)
		if err != nil {
			t.Fatal(err)
		}
		size += len(p)
	}
	withinTIO(t, "a layer job after an idle gap", time.Since(start), dev.TIO(size))
}

// Two readers at once share the one device: together they take the sum
// of their TIOs, not the larger one.
func TestFlashOneReadInFlight(t *testing.T) {
	st := tinyStore(t)
	dev := slowDevice()
	f := newFlashReader(st, dev)
	cfg := st.Man.Config
	bits := st.Man.Bitwidths[len(st.Man.Bitwidths)-1]
	sizes := make([]int, 2)
	var wg sync.WaitGroup
	start := time.Now()
	for l := 0; l < 2; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for s := 0; s < cfg.Heads; s++ {
				p, err := f.ReadShardPayload(l, s, bits)
				if err != nil {
					t.Error(err)
					return
				}
				sizes[l] += len(p)
			}
		}(l)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Interleaved readers switch layers on every read, so each read may
	// start a job: the floor is the transfer time of all bytes.
	floor := time.Duration(float64(sizes[0]+sizes[1]) / dev.Bandwidth * float64(time.Second))
	if elapsed < floor*95/100 {
		t.Fatalf("two concurrent readers took %v; one device needs at least %v", elapsed, floor)
	}
}
