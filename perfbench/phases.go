package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// sweepStats is one sweep as the client saw it.
type sweepStats struct {
	wall    time.Duration // POST to the end of the result stream
	records []sweep.CellRecord
}

// runSweep posts spec to a ciaoserve and follows its result stream,
// which ends when the sweep settles. The wall time runs from the POST
// to the end of that stream.
func runSweep(ctx context.Context, c *http.Client, base string, spec sweep.Spec) (sweepStats, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return sweepStats{}, err
	}
	t0 := time.Now()
	var st sweep.Status
	if err := postJSON(ctx, c, base+"/sweeps", body, http.StatusAccepted, &st); err != nil {
		return sweepStats{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/sweeps/"+st.ID+"/results", nil)
	if err != nil {
		return sweepStats{}, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return sweepStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sweepStats{}, fmt.Errorf("GET results of %s: %s", st.ID, resp.Status)
	}
	var out sweepStats
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var rec sweep.CellRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return sweepStats{}, fmt.Errorf("sweep %s: bad result line: %w", st.ID, err)
		}
		out.records = append(out.records, rec)
	}
	if err := sc.Err(); err != nil {
		return sweepStats{}, fmt.Errorf("reading results of %s: %w", st.ID, err)
	}
	out.wall = time.Since(t0)

	if err := getJSON(c, base+"/sweeps/"+st.ID, &st); err != nil {
		return sweepStats{}, err
	}
	if st.State != sweep.StateDone || st.Done != st.Total || st.Failed != 0 {
		return out, fmt.Errorf("sweep %s ended %s with %d/%d done, %d failed", st.ID, st.State, st.Done, st.Total, st.Failed)
	}
	return out, nil
}

func postJSON(ctx context.Context, c *http.Client, url string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// checkCell validates one simulated cell: it settled, did not time
// out, and finished every warp. It returns the simulated cycles.
func checkCell(bench string, payload []byte) (uint64, error) {
	var cell harness.CellResult
	if err := json.Unmarshal(payload, &cell); err != nil {
		return 0, fmt.Errorf("%s: bad payload: %w", bench, err)
	}
	spec, err := workload.ByName(bench)
	if err != nil {
		return 0, err
	}
	if cell.TimedOut || cell.FinishedWarps != spec.NumWarps {
		return 0, fmt.Errorf("%s/%s: timed_out=%v finished_warps=%d of %d", bench, cell.Sched, cell.TimedOut, cell.FinishedWarps, spec.NumWarps)
	}
	return cell.Cycles, nil
}

// checkSweep compares a sweep's records with the cells its spec
// expands to: every cell exactly once, settled ok, valid. It returns
// the digest over (key, payload) sorted by key and the summed cycles.
func checkSweep(spec sweep.Spec, recs []sweep.CellRecord, rep *report) (digest string, cycles uint64) {
	cells, err := spec.Expand()
	if err != nil {
		rep.fail("expanding the sweep spec: %v", err)
		return "", 0
	}
	want := make(map[string]bool, len(cells))
	for _, c := range cells {
		want[c.Key()] = true
	}
	rep.attempted += len(cells)
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		switch {
		case !want[r.Key]:
			rep.fail("sweep record %s/%s has a key outside the spec", r.Bench, r.Sched)
			continue
		case seen[r.Key]:
			rep.fail("sweep cell %s/%s settled twice", r.Bench, r.Sched)
			continue
		case r.Status != sweep.StatusOK:
			rep.fail("sweep cell %s/%s: %s %s", r.Bench, r.Sched, r.Status, r.Error)
			continue
		}
		seen[r.Key] = true
		n, err := checkCell(r.Bench, r.Result)
		if err != nil {
			rep.fail("sweep cell: %v", err)
		}
		cycles += n
	}
	if missing := len(want) - len(seen); missing > 0 {
		rep.fail("%d sweep cell(s) never settled ok", missing)
	}
	return recordDigest(recs), cycles
}

// recordDigest hashes "key payload\n" lines sorted by key.
func recordDigest(recs []sweep.CellRecord) string {
	sorted := append([]sweep.CellRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	h := sha256.New()
	for _, r := range sorted {
		fmt.Fprintf(h, "%s %s\n", r.Key, r.Result)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ipcVsGTO returns, per benchmark class, each scheduler's geomean IPC
// normalised to GTO over the class's benchmarks. It is printed beside
// the metrics and not gated: a model change moves it on purpose.
func ipcVsGTO(recs []sweep.CellRecord) []string {
	ipc := map[string]map[string]float64{}
	for _, r := range recs {
		var cell harness.CellResult
		if json.Unmarshal(r.Result, &cell) != nil {
			continue
		}
		if ipc[r.Bench] == nil {
			ipc[r.Bench] = map[string]float64{}
		}
		ipc[r.Bench][r.Sched] = cell.IPC
	}
	var lines []string
	for _, class := range []workload.Class{workload.LWS, workload.SWS, workload.CI} {
		logSum := map[string]float64{}
		n := 0
		for _, s := range workload.ByClass(class) {
			row, ok := ipc[s.Name]
			if !ok || row["GTO"] <= 0 {
				continue
			}
			n++
			for sched, v := range row {
				logSum[sched] += math.Log(v / row["GTO"])
			}
		}
		if n == 0 {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "ipc_vs_gto class=%s benches=%d", class, n)
		for _, sched := range schedulerNames() {
			fmt.Fprintf(&b, " %s=%.4f", sched, math.Exp(logSum[sched]/float64(n)))
		}
		lines = append(lines, b.String())
	}
	return lines
}

// runExec sends one /run request and returns the body and its source
// (computed, cache or coalesced).
type runExec func(ctx context.Context, spec service.Spec) ([]byte, string, error)

// httpRun sends /run requests to a ciaoserve.
func httpRun(c *http.Client, base string) runExec {
	return func(ctx context.Context, spec service.Spec) ([]byte, string, error) {
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, "", err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/run", bytes.NewReader(body))
		if err != nil {
			return nil, "", err
		}
		resp, err := c.Do(req)
		if err != nil {
			return nil, "", err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, "", err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, "", fmt.Errorf("/run %s/%s: %s: %s", spec.Bench, spec.Sched, resp.Status, strings.TrimSpace(string(data)))
		}
		return data, resp.Header.Get("X-Cache"), nil
	}
}

// runStats is one /run phase: latencies by source, in milliseconds.
type runStats struct {
	ops       int
	hit       []float64
	cold      []float64
	coalesced []float64
	cycles    uint64 // simulated cycles of the computed responses
	wall      time.Duration
}

func (s *runStats) add(o runStats) {
	s.ops += o.ops
	s.hit = append(s.hit, o.hit...)
	s.cold = append(s.cold, o.cold...)
	s.coalesced = append(s.coalesced, o.coalesced...)
	s.cycles += o.cycles
	s.wall += o.wall
}

// runPhase plays the script with two closed-loop clients: each sends
// its next request only after the previous reply. At a paired op both
// clients wait for each other and then send the same key. Every body
// returned for a key must be byte-identical to the first one, and the
// first one must be a valid cell.
func runPhase(ctx context.Context, script runScript, send runExec, rep *report) runStats {
	var (
		mu     sync.Mutex
		st     runStats
		bodies = map[string][]byte{}
	)
	barriers := make([]sync.WaitGroup, script.pairs)
	for i := range barriers {
		barriers[i].Add(len(script.clients))
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, ops := range script.clients {
		wg.Add(1)
		go func(ops []runOp) {
			defer wg.Done()
			for _, op := range ops {
				if op.kind == opPair {
					barriers[op.pair].Done()
					barriers[op.pair].Wait()
				}
				start := time.Now()
				body, source, err := send(ctx, op.spec)
				lat := ms(time.Since(start))
				if err != nil {
					rep.fail("%v", err)
					continue
				}
				key := op.spec.Key()
				mu.Lock()
				first, seen := bodies[key]
				if !seen {
					bodies[key] = body
				}
				switch source {
				case string(service.SourceCache):
					st.hit = append(st.hit, lat)
				case string(service.SourceCoalesced):
					st.coalesced = append(st.coalesced, lat)
				case string(service.SourceComputed):
					st.cold = append(st.cold, lat)
				}
				mu.Unlock()
				switch {
				case seen && !bytes.Equal(first, body):
					rep.fail("/run %s/%s (%s): body differs from the first reply for its key", op.spec.Bench, op.spec.Sched, source)
				case source == string(service.SourceComputed):
					n, err := checkCell(op.spec.Bench, body)
					if err != nil {
						rep.fail("/run cell: %v", err)
					}
					mu.Lock()
					st.cycles += n
					mu.Unlock()
				case source != string(service.SourceCache) && source != string(service.SourceCoalesced):
					rep.fail("/run %s/%s: unknown source %q", op.spec.Bench, op.spec.Sched, source)
				}
			}
		}(ops)
	}
	wg.Wait()
	st.wall = time.Since(t0)
	for _, ops := range script.clients {
		st.ops += len(ops)
	}
	rep.attempted += st.ops
	return st
}
