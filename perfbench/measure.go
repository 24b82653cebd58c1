package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// --- spans ---

// span is one timed call from the benchmark into a layer. Spans of one
// item (program, benchmark, request key) share the Item field; Parent
// links a call to the span that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Item   string `json:"item,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"` // work done inside the span (events, instrs, ...)
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(parent int, name, item string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Item: item, Start: now})
	return len(t.spans)
}

// end closes a span, recording the work it did.
func (t *tracer) end(id int, count int64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Count = count
	t.mu.Unlock()
}

// record adds an already measured root span.
func (t *tracer) record(name, item string, start time.Time, d time.Duration) {
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Item: item, Start: s, End: s + d.Nanoseconds()})
}

// layerTotal aggregates the spans of one name: self time (duration minus
// the time covered by child spans) and total time in milliseconds, and
// summed counts.
type layerTotal struct {
	SelfMS, TotalMS float64
	Count           int64
}

func (t *tracer) totals() map[string]*layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTotal)
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.TotalMS += float64(d) / 1e6
		lt.SelfMS += float64(d-child[s.ID]) / 1e6
		lt.Count += s.Count
	}
	return out
}

// writeSpans stores the spans of each tracer, by section name, as JSON.
func writeSpans(path string, sections map[string]*tracer) error {
	out := make(map[string][]span, len(sections))
	for name, t := range sections {
		t.mu.Lock()
		out[name] = t.spans
		t.mu.Unlock()
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// --- statistics ---

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// --- process measurements ---

// peakRSSMB reads VmHWM (peak resident set) of a process in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// heapAllocs returns the bytes and objects this process has allocated so far.
func heapAllocs() (bytes, objects uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.Mallocs
}

// --- run metadata ---

// cpuTicks are the host's cumulative CPU ticks from /proc/stat.
type cpuTicks struct{ total, steal int64 }

func readCPUTicks() cpuTicks {
	var t cpuTicks
	line, _, _ := strings.Cut(readTrim("/proc/stat"), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[min(1, len(fields)):] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// collectMeta records the host, the sources and the run's settings,
// and the share of the host's CPU time the hypervisor stole during the
// run (a noisy-neighbour signal for reading the timings).
func collectMeta(o options, nproc int, elapsed time.Duration, cpu0, cpu1 cpuTicks) map[string]any {
	stealPct := 0.0
	if d := cpu1.total - cpu0.total; d > 0 {
		stealPct = 100 * float64(cpu1.steal-cpu0.steal) / float64(d)
	}
	meta := map[string]any{
		"steal_pct":     stealPct,
		"workload":      o.workload,
		"seed":          o.seed,
		"held_out_seed": HeldOutSeed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"nproc":         nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"cpu_model":     cpuModel(),
		"kernel":        readTrim("/proc/sys/kernel/osrelease"),
		"commit":        gitCommit(o.root),
		"run_s":         elapsed.Seconds(),
	}
	digest, loc := sourceStats(o.root)
	meta["source_sha256"] = digest
	meta["go_lines_by_package"] = loc
	return meta
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the checkout's .git directory without
// running git; a checkout that is not a repository reports "unknown"
// and is identified by source_sha256 instead.
func gitCommit(root string) string {
	head := readTrim(filepath.Join(root, ".git", "HEAD"))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if c := readTrim(filepath.Join(root, ".git", ref)); c != "unknown" {
		return c
	}
	for _, line := range strings.Split(readTrim(filepath.Join(root, ".git", "packed-refs")), "\n") {
		if c, r, ok := strings.Cut(line, " "); ok && r == ref {
			return c
		}
	}
	return "unknown"
}

// sourceStats hashes the repository's Go sources (the benchmark's own
// directory and build outputs excluded) and counts non-test Go lines per
// package directory.
func sourceStats(root string) (string, map[string]int) {
	h := sha256.New()
	loc := make(map[string]int)
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal to a run
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			loc[filepath.Dir(rel)] += strings.Count(string(data), "\n")
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), loc
}
