// Command perfbench is the STI benchmark: it drives the serving stack
// through its public entry points on seeded workloads, checks every
// answer against a non-pipelined reference, and prints end-to-end
// metrics (untraced run) or per-layer metrics (traced run, --trace 1).
//
//	go run . --workload engage --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The lines before it
// give host facts, per-phase counts, each workload's own metrics by name
// and, on a traced run, per-span self times and the tracing overhead
// against the untraced run of the same workload, seed and build. README.md
// records why each workload exists and which end-to-end metric each
// layer metric should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one traffic mix the benchmark can run.
type workload struct {
	name string
	run  func(e *env) (*report, error)
}

var workloads = []workload{
	{"engage", runEngage},
	{"serve-classify", runServeClassify},
	{"serve-mixed", runServeMixed},
}

// env is what a workload run gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	rec     *recorder // nil on the untraced run
	workdir string    // scratch space inside the checkout
}

// setupRuns is how many times a run sets its system up; setup_s is
// the median.
const setupRuns = 3

type setupper interface {
	close()
	planTime() time.Duration
}

// setupTimes are the medians over a run's set-ups.
type setupTimes struct {
	seconds, planMs float64
}

// repeatSetup builds the system setupRuns times, keeps the last one,
// closes the others, and returns the median set-up and planning times.
func repeatSetup[T setupper](build func() (T, error)) (T, setupTimes, error) {
	var kept T
	var secs, plans []float64
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		s, err := build()
		if err != nil {
			return kept, setupTimes{}, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		plans = append(plans, ms(s.planTime()))
		if i < setupRuns-1 {
			s.close()
		} else {
			kept = s
		}
	}
	return kept, setupTimes{seconds: median(secs), planMs: median(plans)}, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: engage, serve-classify or serve-mixed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 40, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for stores, results and traces")
	summarize := fs.Bool("summarize", false, "read result lines of several runs on stdin and print each metric's median, quartiles and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarize {
		if err := summarizeRuns(os.Stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (engage, serve-classify, serve-mixed), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// The open-loop generator and the system share one process; pin
	// GOMAXPROCS to the CPUs the host has.
	runtime.GOMAXPROCS(runtime.NumCPU())

	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, workdir: *workdir}
	if *trace == 1 {
		e.rec = newRecorder()
	}
	printJSONLine(stdout, "host", hostFacts())
	r, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range r.phases {
		printJSONLine(stdout, "phase", p)
	}
	for _, nv := range r.named {
		fmt.Fprintf(stdout, "metric %s %.4f %s\n", nv.Name, nv.Value, nv.Unit)
	}
	fmt.Fprintf(stdout, "mismatches %d\n", r.failed)
	if r.firstErr != nil {
		fmt.Fprintf(stdout, "first failure: %v\n", r.firstErr)
	}

	// The untraced result a traced run compares itself with: same
	// workload, same seed, same build.
	last := filepath.Join(*workdir, fmt.Sprintf("last-%s-%d.json", w.name, *seed))
	saved := savedRun{Build: buildID(), Values: r.e2e}
	defs := endToEnd
	values := r.e2e
	if e.rec != nil {
		defs, values = perLayer, r.layer
		if err := reportTrace(stdout, e, w.name, r, last, saved.Build); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	} else if err := saveRun(last, saved); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricOut)}
	for _, d := range defs {
		out.Metrics[d.Name] = metricOut{Value: values[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// reportTrace prints a traced run's span self times and the tracing
// overhead against the untraced run of the same workload, seed and
// build (its end-to-end values measured again here, with tracing on),
// then writes the spans out.
func reportTrace(w io.Writer, e *env, name string, r *report, last, build string) error {
	times := e.rec.finish()
	names := make([]string, 0, len(times))
	for n := range times {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := times[n]
		fmt.Fprintf(w, "span %s count=%d total_ms=%.3f self_ms=%.3f\n", n, t.Count, ms(t.Total), ms(t.Self))
	}
	switch base, err := loadRun(last); {
	case err != nil:
		fmt.Fprintf(w, "trace_overhead unknown: no untraced %s run of seed %d in %s\n", name, e.seed, filepath.Dir(last))
	case base.Build != build:
		fmt.Fprintf(w, "trace_overhead unknown: the untraced %s run of seed %d was made by build %s, this is %s\n", name, e.seed, base.Build, build)
	default:
		fmt.Fprintf(w, "trace_overhead against the untraced %s run of seed %d, build %s\n", name, e.seed, build)
		for _, d := range endToEnd {
			if b := base.Values[d.Name]; b != 0 {
				fmt.Fprintf(w, "trace_overhead %s untraced=%.4f traced=%.4f change=%+.1f%%\n",
					d.Name, b, r.e2e[d.Name], 100*(r.e2e[d.Name]/b-1))
			}
		}
	}
	path := filepath.Join(e.workdir, fmt.Sprintf("trace-%s-%d.jsonl", name, e.seed))
	if err := e.rec.write(path); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace written to %s\n", path)
	return nil
}

// summarizeRuns reads the JSON result lines of several runs (other
// lines are skipped) and prints, per metric, the median, the quartiles
// and the spread (IQR over median) that run-to-run comparisons use.
func summarizeRuns(r io.Reader, w io.Writer) error {
	values := make(map[string][]float64)
	var names []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	runs := 0
	for sc.Scan() {
		var res struct {
			Metrics map[string]struct{ Value float64 } `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &res) != nil || res.Metrics == nil {
			continue
		}
		runs++
		for n, m := range res.Metrics {
			if _, ok := values[n]; !ok {
				names = append(names, n)
			}
			values[n] = append(values[n], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if runs < 2 {
		return fmt.Errorf("summarize: %d result lines; need at least 2", runs)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d runs\n", runs)
	for _, n := range names {
		xs := values[n]
		q1, q3, err := quartiles(xs)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		med := median(append([]float64(nil), xs...))
		spread := "n/a"
		if share, err := iqrShare(xs); err == nil {
			spread = fmt.Sprintf("%.4f", share)
		}
		fmt.Fprintf(w, "%-28s median=%.4f q1=%.4f q3=%.4f spread=%s\n", n, med, q1, q3, spread)
	}
	return nil
}

// savedRun is an untraced run's end-to-end values and the build that
// measured them.
type savedRun struct {
	Build  string             `json:"build"`
	Values map[string]float64 `json:"values"`
}

func saveRun(path string, v savedRun) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func loadRun(path string) (savedRun, error) {
	var v savedRun
	b, err := os.ReadFile(path)
	if err != nil {
		return v, err
	}
	return v, json.Unmarshal(b, &v)
}

// buildID names the running binary by a hash of its contents, so runs
// of different code are not compared.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

func printJSONLine(w io.Writer, tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "%s %s\n", tag, b)
}
