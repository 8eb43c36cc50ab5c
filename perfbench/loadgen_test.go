package main

import (
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonScheduleSameSeedSameSchedule(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(42)), 300, 5*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(42)), 300, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := poissonSchedule(rand.New(rand.NewSource(43)), 300, 5*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 1500 expected arrivals: a Poisson count stays within 5 sigma.
	if n := float64(len(a)); math.Abs(n-1500) > 5*math.Sqrt(1500) {
		t.Fatalf("%v arrivals at 300/s over 5s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 5*time.Second {
			t.Fatalf("due time %d out of order or range: %v", i, a[i])
		}
	}
}

func TestOpenLoopSendsOnScheduleAndWaits(t *testing.T) {
	due := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond}
	var done atomic.Int32
	start := time.Now()
	lags := openLoop(start, due, func(i int, at time.Time) {
		if got := at.Sub(start); got != due[i] {
			t.Errorf("request %d due at %v, want %v", i, got, due[i])
		}
		time.Sleep(20 * time.Millisecond) // slow requests do not delay later sends
		done.Add(1)
	})
	if done.Load() != int32(len(due)) {
		t.Fatalf("openLoop returned with %d of %d requests finished", done.Load(), len(due))
	}
	for i, l := range lags {
		if l < 0 || l > 50*time.Millisecond {
			t.Errorf("request %d sent %v late", i, l)
		}
	}
}
