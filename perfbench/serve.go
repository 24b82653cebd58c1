package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tlssync"
	"tlssync/internal/journal"
	"tlssync/internal/parallel"
	"tlssync/internal/report"
	"tlssync/internal/sim"
	"tlssync/internal/store"
)

const (
	// serveBenches is the size of the synthetic serving set; with nine
	// policies it gives the cold phase a few hundred first touches.
	serveBenches = 24
	// warmRequests is the number of memory-tier reads per session.
	warmRequests = 4000
	// daemonStoreCapacity is tlsd's default in-memory store capacity
	// (-cache), which the in-process store replay uses too.
	daemonStoreCapacity = 512
)

// servePolicies are the policy labels tlsd serves.
var servePolicies = []string{"U", "O", "T", "C", "E", "L", "H", "P", "B"}

type serveKey struct{ bench, policy string }

// serveInputs are the generated inputs of the serve workload: the
// serving set and the key order of each phase, all from the seed.
type serveInputs struct {
	ws   []*tlssync.Workload
	cold []serveKey // every key once
	warm []serveKey // warmRequests keys drawn uniformly
	disk []serveKey // every key once, in another order
}

func makeServeInputs(seed uint64) *serveInputs {
	in := &serveInputs{ws: tlssync.SynthBenchmarks(seed, serveBenches)}
	var keys []serveKey
	for _, w := range in.ws {
		for _, p := range servePolicies {
			keys = append(keys, serveKey{w.Name, p})
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	shuffled := func() []serveKey {
		out := append([]serveKey(nil), keys...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	in.cold = shuffled()
	in.disk = shuffled()
	for i := 0; i < warmRequests; i++ {
		in.warm = append(in.warm, keys[rng.IntN(len(keys))])
	}
	return in
}

func (in *serveInputs) names() []string {
	out := make([]string, len(in.ws))
	for i, w := range in.ws {
		out[i] = w.Name
	}
	return out
}

// --- the expected responses ---

// simPayload and verifySummary mirror the artifact tlsd stores and
// serves for one simulation (cmd/tlsd/server.go).
type simPayload struct {
	Bench          string                   `json:"bench"`
	Policy         string                   `json:"policy"`
	Bar            report.BarJSON           `json:"bar"`
	RegionSpeedup  float64                  `json:"region_speedup"`
	ProgramSpeedup float64                  `json:"program_speedup"`
	Coverage       float64                  `json:"coverage"`
	Violations     int64                    `json:"violations"`
	Restarts       int64                    `json:"restarts"`
	RegionCycles   int64                    `json:"region_cycles"`
	SeqCycles      int64                    `json:"seq_cycles"`
	Verify         map[string]verifySummary `json:"verify,omitempty"`
}

type verifySummary struct {
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
}

func payloadOf(r *tlssync.Run, policy string, res *sim.Result) ([]byte, error) {
	bar := report.RowsJSON([]report.Row{{Bars: []report.Bar{r.Bar(policy, res)}}})[0].Bars[0]
	var vs map[string]verifySummary
	if r.Build.VerifyReports != nil {
		vs = make(map[string]verifySummary)
		for name, rep := range r.Build.VerifyReports {
			vs[name] = verifySummary{Errors: len(rep.Errors()), Warnings: len(rep.Warnings())}
		}
	}
	return store.Marshal(simPayload{
		Bench: r.W.Name, Policy: policy, Bar: bar,
		RegionSpeedup: r.RegionSpeedup(res), ProgramSpeedup: r.ProgramSpeedup(res), Coverage: r.Coverage(),
		Violations: res.Violations, Restarts: res.Restarts,
		RegionCycles: res.RegionCycles(), SeqCycles: res.SeqCycles,
		Verify: vs,
	})
}

// bodyOf renders a /simulate response body the way tlsd writes it.
func bodyOf(state string, payload []byte) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{"cache": state, "result": json.RawMessage(payload)}) // a map of a string and valid JSON always encodes
	return buf.Bytes()
}

// serveReference computes every key's payload in process with
// Run.Simulate, on b.workers goroutines.
type serveReference struct {
	runs     []*tlssync.Run
	payloads map[serveKey][]byte
	miss     map[serveKey][]byte // expected body of a computed response
	hit      map[serveKey][]byte // expected body of a stored response
}

func computeReference(b *bench, ws []*tlssync.Workload) (*serveReference, error) {
	ref := &serveReference{runs: make([]*tlssync.Run, len(ws))}
	payloads := make([][]byte, len(ws)*len(servePolicies))
	err := parallel.Map(context.Background(), b.workers, len(ws), func(_ context.Context, i int) error {
		r, err := tlssync.NewRun(ws[i])
		if err != nil {
			return err
		}
		ref.runs[i] = r
		for j, p := range servePolicies {
			res, err := r.Simulate(p)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", ws[i].Name, p, err)
			}
			if payloads[i*len(servePolicies)+j], err = payloadOf(r, p, res); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reference payloads: %w", err)
	}
	ref.payloads = make(map[serveKey][]byte)
	ref.miss = make(map[serveKey][]byte)
	ref.hit = make(map[serveKey][]byte)
	for i, w := range ws {
		for j, p := range servePolicies {
			k, data := serveKey{w.Name, p}, payloads[i*len(servePolicies)+j]
			ref.payloads[k] = data
			ref.miss[k] = bodyOf("miss", data)
			ref.hit[k] = bodyOf("hit", data)
		}
	}
	return ref, nil
}

// --- the daemon ---

type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startDaemon starts tlsd on a loopback port over cacheDir and returns
// once /readyz answers 200.
func startDaemon(b *bench, dir, cacheDir string, names []string) (*daemon, error) {
	portFile := filepath.Join(dir, "port")
	_ = os.Remove(portFile) // a stale port file from the previous daemon; absent is fine
	logFile, err := os.OpenFile(filepath.Join(dir, "tlsd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(b.opts.tlsd, "-addr", "127.0.0.1:0", "-portfile", portFile,
		"-cachedir", cacheDir, "-benchmarks", strings.Join(names, ","),
		"-j", strconv.Itoa(b.workers), "-scrub", "0", "-pprof")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start tlsd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon carries no information
		logFile.Close()
		close(d.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return nil, fmt.Errorf("tlsd exited during start-up (see %s)", logFile.Name())
		default:
		}
		if d.base == "" {
			if addr, err := os.ReadFile(portFile); err == nil && len(addr) > 0 {
				d.base = "http://" + strings.TrimSpace(string(addr))
			}
		}
		if d.base != "" {
			if resp, err := http.Get(d.base + "/readyz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("tlsd not ready within 60s")
}

// kill stops the daemon and waits for it to exit. Every artifact and
// journal record a response reported is already durable, so a restart
// after SIGKILL sees the same state as after a graceful drain.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if the process already exited
	<-d.done
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

func getBody(u string) ([]byte, error) {
	resp, err := http.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// daemonStats is the part of /stats the benchmark reads.
type daemonStats struct {
	Store store.Stats `json:"store"`
	Jobs  struct {
		Submitted int64 `json:"submitted"`
		Coalesced int64 `json:"coalesced"`
		Recovered int64 `json:"recovered"`
		TotalTime int64 `json:"total_time"`
		Stages    map[string]struct {
			Total int64 `json:"total_time"`
		} `json:"stages"`
	} `json:"jobs"`
	Admission struct {
		Shed int64 `json:"shed"`
	} `json:"admission"`
}

func (d *daemon) stats() (*daemonStats, error) {
	data, err := getBody(d.base + "/stats")
	if err != nil {
		return nil, err
	}
	var st daemonStats
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return &st, nil
}

// totalAlloc reads the daemon's cumulative heap allocation (bytes) from
// the runtime statistics its pprof endpoint prints.
func (d *daemon) totalAlloc() (float64, error) {
	data, err := getBody(d.base + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("no TotalAlloc in the daemon's allocation profile")
}

// --- sessions ---

// phase is one closed-loop phase: b.workers clients, each sending its
// next request once the previous one has completed.
type phase struct {
	lat  []float64 // per-request latency, ms
	wall time.Duration
}

// drive requests every key of seq from d and checks each response's
// status, X-Tlsd-Cache header and body. With a tracer every request
// becomes a span named name.
func drive(b *bench, client *http.Client, d *daemon, seq []serveKey, state string, want map[serveKey][]byte, tr *tracer, name string) phase {
	ph := phase{lat: make([]float64, len(seq))}
	fails := make([]string, len(seq))
	t0 := time.Now()
	_ = parallel.Map(context.Background(), b.workers, len(seq), func(_ context.Context, i int) error {
		k := seq[i]
		u := d.base + "/simulate?bench=" + url.QueryEscape(k.bench) + "&policy=" + url.QueryEscape(k.policy)
		start := time.Now()
		status, header, body, err := get(client, u)
		lat := time.Since(start)
		ph.lat[i] = ms(lat)
		if tr != nil {
			tr.record(name, k.bench+"/"+k.policy, start, lat)
		}
		switch {
		case err != nil:
			fails[i] = err.Error()
		case status != http.StatusOK:
			fails[i] = fmt.Sprintf("status %d", status)
		case header != state:
			fails[i] = fmt.Sprintf("X-Tlsd-Cache %q, want %q", header, state)
		case !bytes.Equal(body, want[k]):
			fails[i] = "body differs from the in-process Run.Simulate payload: " + firstDiff(body, want[k])
		}
		return nil // fails holds every request's outcome
	})
	ph.wall = time.Since(t0)
	for i, msg := range fails {
		b.check(msg == "", "%s %s/%s: %s", name, seq[i].bench, seq[i].policy, msg)
	}
	return ph
}

func get(client *http.Client, u string) (int, string, []byte, error) {
	resp, err := client.Get(u)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Tlsd-Cache"), body, err
}

// session is one serve iteration's measurements.
type session struct {
	setup            time.Duration
	cold, warm, disk phase
	rssMB            float64 // larger VmHWM of the two daemons
	allocMB          float64 // heap allocated by the daemons during the phases
	st0, st1         *daemonStats
}

// serveSession generates the inputs, starts tlsd on an empty cache dir
// (set-up), then runs the cold and warm phases, restarts the daemon over
// the same cache dir and runs the disk phase.
func serveSession(b *bench, ref *serveReference, tr *tracer) (*session, error) {
	dir, err := os.MkdirTemp(b.opts.out, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cache := filepath.Join(dir, "cache")
	s := &session{}

	t0 := time.Now()
	in := makeServeInputs(b.opts.seed)
	d, err := startDaemon(b, dir, cache, in.names())
	if err != nil {
		return nil, err
	}
	s.setup = time.Since(t0)
	defer d.kill() // a no-op once the restart below has killed it

	client := &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: b.workers, MaxConnsPerHost: b.workers}}
	defer client.CloseIdleConnections()
	a0, err := d.totalAlloc()
	if err != nil {
		return nil, err
	}
	if s.st0, err = d.stats(); err != nil {
		return nil, err
	}
	s.cold = drive(b, client, d, in.cold, "miss", ref.miss, tr, "tlsd.cold")
	if s.st1, err = d.stats(); err != nil {
		return nil, err
	}
	b.check(s.st1.Jobs.Submitted-s.st0.Jobs.Submitted == int64(serveBenches+len(in.cold)),
		"cold phase: %d jobs submitted, want one compile per benchmark and one simulation per key",
		s.st1.Jobs.Submitted-s.st0.Jobs.Submitted)
	s.warm = drive(b, client, d, in.warm, "hit", ref.hit, tr, "tlsd.warm")
	a1, err := d.totalAlloc()
	if err != nil {
		return nil, err
	}
	rss1, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	d.kill()
	client.CloseIdleConnections()

	d2, err := startDaemon(b, dir, cache, in.names())
	if err != nil {
		return nil, err
	}
	defer d2.kill()
	a2, err := d2.totalAlloc()
	if err != nil {
		return nil, err
	}
	st2, err := d2.stats()
	if err != nil {
		return nil, err
	}
	s.disk = drive(b, client, d2, in.disk, "hit", ref.hit, tr, "tlsd.disk")
	st3, err := d2.stats()
	if err != nil {
		return nil, err
	}
	b.check(st3.Store.DiskHits-st2.Store.DiskHits == int64(len(in.disk)),
		"disk phase: %d disk-tier reads, want %d", st3.Store.DiskHits-st2.Store.DiskHits, len(in.disk))
	b.check(st3.Jobs.Submitted == 0 && st3.Jobs.Recovered == 0,
		"disk phase: the restarted daemon ran %d jobs", st3.Jobs.Submitted)
	a3, err := d2.totalAlloc()
	if err != nil {
		return nil, err
	}
	rss2, err := peakRSSMB(d2.pid())
	if err != nil {
		return nil, err
	}
	s.rssMB = max(rss1, rss2)
	s.allocMB = (a1 - a0 + a3 - a2) / (1 << 20)
	return s, nil
}

func (s *session) wall() time.Duration { return s.cold.wall + s.warm.wall + s.disk.wall }

func runServe(b *bench) error {
	in := makeServeInputs(b.opts.seed)
	ref, err := computeReference(b, in.ws)
	if err != nil {
		return err
	}
	if b.opts.trace {
		return serveTraced(b, in, ref)
	}

	var setups, walls, rss, allocs, warm []float64
	dur := time.Duration(b.opts.seconds) * time.Second
	start := time.Now()
	for iter := 0; iter == 0 || time.Since(start) < dur; iter++ {
		s, err := serveSession(b, ref, nil)
		if err != nil {
			return err
		}
		setups = append(setups, s.setup.Seconds())
		walls = append(walls, s.wall().Seconds())
		rss = append(rss, s.rssMB)
		allocs = append(allocs, s.allocMB)
		warm = append(warm, s.warm.lat...)
	}
	b.set("setup_s", median(setups))
	b.set("wall_s", median(walls))
	b.set("peak_rss_mb", median(rss))
	b.set("alloc_mb", median(allocs))
	b.set("p50_ms", quantile(warm, 0.5))
	b.set("p90_ms", quantile(warm, 0.9))
	logf("serve: %d sessions (%.3v s), %d warm requests", len(walls), walls, len(warm))
	return nil
}

// serveTraced is the --trace 1 run: one untraced session (whose phase
// latencies give the tlsd.* request-path metrics), one traced session
// (a span per request, /stats counters), the compiler and simulator
// layers over the serving set, and an in-process replay of the daemon's
// store and journal traffic.
func serveTraced(b *bench, in *serveInputs, ref *serveReference) error {
	sA, err := serveSession(b, ref, nil)
	if err != nil {
		return err
	}
	b.set("tlsd.cold_p50_ms", quantile(sA.cold.lat, 0.5))
	b.set("tlsd.cold_p90_ms", quantile(sA.cold.lat, 0.9))
	b.set("tlsd.warm_p50_ms", quantile(sA.warm.lat, 0.5))
	b.set("tlsd.warm_p99_ms", quantile(sA.warm.lat, 0.99))
	b.set("tlsd.warm_rps", float64(len(sA.warm.lat))/sA.warm.wall.Seconds())
	b.set("tlsd.disk_p50_ms", quantile(sA.disk.lat, 0.5))

	tr := newTracer()
	s, err := serveSession(b, ref, tr)
	if err != nil {
		return err
	}
	b.set("trace.overhead_s", (s.wall() - sA.wall()).Seconds())
	j0, j1 := s.st0.Jobs, s.st1.Jobs
	b.set("tlsd.submitted", float64(j1.Submitted-j0.Submitted))
	b.set("tlsd.coalesced", float64(j1.Coalesced-j0.Coalesced))
	b.set("tlsd.shed", float64(s.st1.Admission.Shed-s.st0.Admission.Shed))
	for _, stage := range []string{"compile", "profile", "trace", "sim"} {
		b.set("tlsd.stage."+stage+"_ms", float64(j1.Stages[stage].Total-j0.Stages[stage].Total)/1e6)
	}
	b.set("jobs.busy_ratio", float64(j1.TotalTime-j0.TotalTime)/1e6/(float64(b.workers)*ms(s.cold.wall)))
	b.set("jobs.coalesced_ratio", float64(j1.Coalesced-j0.Coalesced)/float64(j1.Submitted-j0.Submitted+j1.Coalesced-j0.Coalesced))

	layers := newTracer()
	compileLayers(b, layers, ref.runs)
	simLayers(b, layers, ref.runs, labelSpecs)
	tot := layers.totals()
	setPassValues(b, tot)
	setSimValues(b, tot)
	interpAPE, simAPE := allocsPerEvent(ref.runs[:3], labelSpecs)
	b.set("interp.allocs_per_event", interpAPE)
	b.set("sim.allocs_per_event", simAPE)

	if err := replayStore(b, in, ref); err != nil {
		return err
	}
	return writeSpans(filepath.Join(b.opts.out, fmt.Sprintf("spans-serve-seed%d.json", b.opts.seed)),
		map[string]*tracer{"session": tr, "layers": layers})
}

// labelSpecs returns the simulations tlsd serves for r.
func labelSpecs(r *tlssync.Run) []tlssync.SimSpec {
	out := make([]tlssync.SimSpec, len(servePolicies))
	for i, p := range servePolicies {
		out[i] = r.LabelSpec(p)
	}
	return out
}

// replayStore replays the daemon's store and journal traffic for one
// session in process, against store.New and journal.Open on a temp dir:
// per cold key a store miss, a journal begin, a store put and a journal
// commit; the warm reads; then, on a reopened store, the disk reads.
func replayStore(b *bench, in *serveInputs, ref *serveReference) error {
	dir, err := os.MkdirTemp(b.opts.out, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache := filepath.Join(dir, "cache")
	wl := make(map[string]*tlssync.Workload)
	for _, w := range in.ws {
		wl[w.Name] = w
	}
	akey := func(k serveKey) string { return tlssync.WorkloadArtifactKey("simulate", wl[k.bench], k.policy) }

	st, err := store.New(daemonStoreCapacity, cache)
	if err != nil {
		return err
	}
	jn, err := journal.Open(filepath.Join(cache, "journal"), store.OS)
	if err != nil {
		return err
	}
	var getMS, putMS, beginMS, commitMS, diskMS []float64
	timed := func(dst *[]float64, fn func()) {
		t0 := time.Now()
		fn()
		*dst = append(*dst, ms(time.Since(t0)))
	}
	for _, k := range in.cold {
		key, jkey := akey(k), "simulate/"+k.bench+"/"+k.policy
		_, hit := st.Get(key)
		b.check(!hit, "replay: %s present before its put", jkey)
		timed(&beginMS, func() { jn.Begin(journal.Record{Key: jkey, Kind: "simulate", Bench: k.bench, Label: k.policy}) })
		timed(&putMS, func() { st.Put(key, ref.payloads[k]) })
		timed(&commitMS, func() { jn.Commit(jkey) })
	}
	for _, k := range in.warm {
		var v []byte
		var ok bool
		key := akey(k)
		timed(&getMS, func() { v, ok = st.Get(key) })
		b.check(ok && bytes.Equal(v, ref.payloads[k]), "replay: warm read of %s/%s", k.bench, k.policy)
	}
	if err := jn.Close(); err != nil {
		return err
	}
	s1 := st.Stats()
	st2, err := store.New(daemonStoreCapacity, cache)
	if err != nil {
		return err
	}
	for _, k := range in.disk {
		var v []byte
		var ok bool
		key := akey(k)
		timed(&diskMS, func() { v, ok = st2.Get(key) })
		b.check(ok && bytes.Equal(v, ref.payloads[k]), "replay: disk read of %s/%s", k.bench, k.policy)
	}
	s2 := st2.Stats()
	b.check(s1.DiskErrors == 0 && s2.DiskErrors == 0 && s2.DiskHits == int64(len(in.disk)),
		"replay: %d disk errors, %d disk hits", s1.DiskErrors+s2.DiskErrors, s2.DiskHits)
	b.set("store.get_ms", mean(getMS))
	b.set("store.disk_get_ms", mean(diskMS))
	b.set("store.put_ms", mean(putMS))
	b.set("store.hit_ratio", float64(s1.Hits+s2.Hits)/float64(s1.Hits+s1.Misses+s2.Hits+s2.Misses))
	b.set("journal.begin_ms", mean(beginMS))
	b.set("journal.commit_ms", mean(commitMS))
	return nil
}
