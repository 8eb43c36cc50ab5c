package main

import (
	"math/rand"
	"sync"
	"time"
)

// poissonSchedule returns the due times, as offsets from a phase's
// start, of a Poisson arrival process at rate per second over dur. The
// schedule depends only on rng's state, so one seed gives one schedule.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}

// openLoop sends request i at start+due[i] regardless of how earlier
// requests fare: one dispatcher goroutine sleeps until each due time
// and hands the request to a goroutine of its own, so a stalled system
// sees its queue grow instead of its load drop. fire receives the due
// time, from which the request's latency is measured. openLoop returns
// once every request has finished, with how late each was sent.
func openLoop(start time.Time, due []time.Duration, fire func(i int, dueAt time.Time)) []time.Duration {
	lags := make([]time.Duration, len(due))
	var wg sync.WaitGroup
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		lags[i] = time.Since(at)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fire(i, at)
		}(i)
	}
	wg.Wait()
	return lags
}

// phaseCount is what one load phase sent and how it ended: succeeded
// (a correct answer), refused (shed by admission control or out of
// deadline, the designed overload outcomes) or failed (any other error
// or a wrong answer).
type phaseCount struct {
	Name      string `json:"phase"`
	Sent      int    `json:"sent"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
	Refused   int    `json:"refused"`
}
