package main

import (
	"sync"
	"time"

	"sti/internal/device"
	"sti/internal/store"
)

// flashReader is a store.PayloadReader that emulates the planning
// profile's flash device in front of a real store: each read costs
// size/Bandwidth, each layer IO job pays IOOverhead once, and one read
// is in flight at a time, so concurrent readers cannot create
// bandwidth the device does not have. The payload bytes are passed
// through unchanged.
//
// A layer job starts when a read names a different layer than the
// previous one, or after newJob; a caller that runs one engagement at a
// time calls newJob before each so two engagements streaming the same
// single layer still pay the overhead twice.
type flashReader struct {
	src store.PayloadReader
	dev *device.Profile

	mu        sync.Mutex // held for a read's whole emulated transfer
	lastLayer int        // layer of the previous read; -1 starts a new job
	busyUntil time.Time  // when the emulated device finishes its last read
	// oversleep is how long after busyUntil the previous read's caller
	// woke: the emulation's own timer overshoot, which a real device
	// does not have. The next read is charged as if issued that much
	// earlier; any other gap between reads leaves the device idle.
	oversleep time.Duration

	// Counters since the last take: bytes read, reads, and the time
	// callers spent inside ReadShardPayload.
	bytes int64
	reads int
	busy  time.Duration
	// onRead, when non-nil, sees the wall-clock interval of every
	// completed read (the traced run records store.read spans from
	// it). Called with mu held.
	onRead func(start, end time.Time)
}

func newFlashReader(src store.PayloadReader, dev *device.Profile) *flashReader {
	return &flashReader{src: src, dev: dev, lastLayer: -1}
}

// newJob makes the next read start a fresh layer IO job on an idle
// device.
func (f *flashReader) newJob() {
	f.mu.Lock()
	f.lastLayer = -1
	f.busyUntil = time.Time{}
	f.oversleep = 0
	f.mu.Unlock()
}

// ReadShardPayload reads one payload from the wrapped store and holds
// the caller until the emulated device would have delivered it.
func (f *flashReader) ReadShardPayload(layer, slice, bits int) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	start := time.Now()
	payload, err := f.src.ReadShardPayload(layer, slice, bits)
	if err != nil {
		return nil, err
	}
	cost := time.Duration(float64(len(payload)) / f.dev.Bandwidth * float64(time.Second))
	if layer != f.lastLayer {
		cost += f.dev.IOOverhead
	}
	f.lastLayer = layer
	begin := start.Add(-f.oversleep)
	if begin.Before(f.busyUntil) {
		begin = f.busyUntil
	}
	f.busyUntil = begin.Add(cost)
	f.oversleep = 0
	if d := time.Until(f.busyUntil); d > 0 {
		time.Sleep(d)
		f.oversleep = max(time.Since(f.busyUntil), 0)
	}
	end := time.Now()
	f.bytes += int64(len(payload))
	f.reads++
	f.busy += end.Sub(start)
	if f.onRead != nil {
		f.onRead(start, end)
	}
	return payload, nil
}

// take returns and resets the read counters.
func (f *flashReader) take() (bytes int64, reads int, busy time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	bytes, reads, busy = f.bytes, f.reads, f.busy
	f.bytes, f.reads, f.busy = 0, 0, 0
	return bytes, reads, busy
}
