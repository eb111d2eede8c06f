// Command perfbench is the repository benchmark. It drives the shipped
// ciaoserve and ciaosweep binaries, which bench.sh builds beside it
// under .bench_build/bin, through one named workload, checks every
// output, and prints the end-to-end metrics. With -trace 1 it runs the same inputs in-process
// instead, with timing wrappers around each layer's public functions,
// and prints the per-layer metrics. NOTES.md describes the workloads,
// the metrics and the checks.
//
// Run it from the repository root through the launcher, which builds
// all three binaries before anything is timed and keeps the Go build
// cache inside the checkout:
//
//	bash perfbench/bench.sh --workload sweep-memory --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":..,"failed":..,"metrics":{"<name>":{"value":..,"unit":".."}}}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// runDeadline bounds one invocation, building excluded, so a hung
// server cannot keep the benchmark past its time limit.
const runDeadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed: the same seed generates the same specs and requests")
	seconds := flag.Int("seconds", 20, "how long the timed rounds run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced in-process pass and prints per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, trace bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	b := &bench{
		bin:  filepath.Join(root, ".bench_build", "bin"),
		work: filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)
	defer b.stopAll()

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	var rep *report
	if trace {
		rep, err = b.traced(ctx, w, seed)
	} else {
		rep, err = b.timed(ctx, w, seed, time.Duration(seconds)*time.Second)
	}
	if err != nil {
		return err
	}
	return rep.print(os.Stdout)
}

// report is what one invocation prints: diagnostic lines, then the
// result object as the last line.
type report struct {
	mu        sync.Mutex
	attempted int
	failures  []string
	metrics   map[string]metric
	notes     []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// fail records a failed operation or check; it counts in "failed".
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) print(f *os.File) error {
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	const maxShown = 20
	for i, msg := range r.failures {
		if i == maxShown {
			fmt.Fprintf(f, "check failed: ... and %d more\n", len(r.failures)-maxShown)
			break
		}
		fmt.Fprintln(f, "check failed:", msg)
	}
	failed := len(r.failures)
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	frac := float64(failed) / float64(attempted)
	fmt.Fprintf(f, "failed_frac=%.6f (%d failed of %d attempted)\n", frac, failed, attempted)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(out))
	return err
}

// median returns the middle value of xs (the mean of the middle two for
// an even count), or 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile interpolates linearly between the closest ranks of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
