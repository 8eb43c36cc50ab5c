package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRecorderSelfTime(t *testing.T) {
	rec := newRecorder()
	at := func(ms int) time.Time { return rec.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := rec.add(7, -1, "serve.Submit", at(0), at(100))
	rec.add(7, root, "serve.queue", at(0), at(30))
	rec.add(7, root, "fleet.exec", at(30), at(90))
	rec.add(7, root, "overlap", at(80), at(120)) // clipped to the parent
	times := rec.finish()
	if got := times["serve.Submit"].Self; got != 0 {
		t.Fatalf("root self time %v, want 0 (children cover 0..100)", got)
	}
	if got := times["fleet.exec"]; got.Count != 1 || got.Self != 60*time.Millisecond {
		t.Fatalf("fleet.exec %+v", got)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Req != 7 {
			t.Fatalf("span %d lost its request id: %+v", n, s)
		}
	}
	if n != 4 {
		t.Fatalf("wrote %d spans, want 4", n)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	if id := rec.add(1, -1, "x", time.Now(), time.Now()); id != -1 {
		t.Fatalf("nil recorder returned span id %d", id)
	}
}
