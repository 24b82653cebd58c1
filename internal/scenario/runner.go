package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"tlssync/internal/cluster"
	"tlssync/internal/httpretry"
	"tlssync/internal/progen"
)

// A Daemon is one tlsd under test, as the runner sees it: a base URL
// that may change across restarts, plus lifecycle controls. The real
// implementation (procDaemon, cmd/tlssim) launches tlsd processes and
// discovers their :0-assigned ports via -portfile; runner tests use
// in-process fakes.
type Daemon interface {
	// URL returns the current base URL (no trailing slash).
	URL() string
	// Kill SIGKILLs the process mid-flight — no drain, no cleanup.
	Kill() error
	// Restart relaunches the daemon over the same state directory, so
	// crash recovery (journal replay, disk rescan) runs for real.
	Restart() error
	// WaitReady blocks until /readyz answers 200 (ok or degraded).
	WaitReady(ctx context.Context) error
	// Close terminates the daemon and releases its resources.
	Close()
}

// RunOptions configures a scenario run.
type RunOptions struct {
	// StartDaemon launches daemon i of the scenario's fleet. cmd/tlssim
	// installs the real tlsd process launcher; tests install fakes.
	StartDaemon func(i int) (Daemon, error)
	// StartJoiner launches daemon i as a cluster JOINER: instead of
	// booting with the static membership it joins via seedURL (a live
	// member's base URL). Required when the scenario has join_node
	// events.
	StartJoiner func(i int, seedURL string) (Daemon, error)
	// Logf receives progress lines (nil: silent).
	Logf func(format string, args ...any)
	// Client issues the fleet's requests (nil: a default with a
	// per-request timeout derived from the scenario).
	Client *http.Client
	// ReadyTimeout bounds each daemon's startup/recovery wait
	// (<=0: 60s).
	ReadyTimeout time.Duration
}

// liveFleet tracks the daemons as membership events mutate the fleet
// mid-run: join_node appends a daemon, decommission_node marks one
// gone. Final scrapes walk live() so a retired node is neither probed
// nor counted against convergence.
type liveFleet struct {
	mu      sync.Mutex
	daemons []Daemon
	gone    []bool
}

func newLiveFleet(ds []Daemon) *liveFleet {
	return &liveFleet{daemons: ds, gone: make([]bool, len(ds))}
}

// add registers daemon i (growing the fleet for a joiner).
func (f *liveFleet) add(i int, d Daemon) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.daemons) <= i {
		f.daemons = append(f.daemons, nil)
		f.gone = append(f.gone, false)
	}
	f.daemons[i] = d
}

// markGone retires daemon i: it stays closable but is no longer live.
func (f *liveFleet) markGone(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < len(f.gone) {
		f.gone[i] = true
	}
}

// get returns daemon i, or nil when it never started or was retired.
func (f *liveFleet) get(i int) Daemon {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < 0 || i >= len(f.daemons) || f.gone[i] {
		return nil
	}
	return f.daemons[i]
}

// live returns the running fleet in index order.
func (f *liveFleet) live() []Daemon {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []Daemon
	for i, d := range f.daemons {
		if d != nil && !f.gone[i] {
			out = append(out, d)
		}
	}
	return out
}

// liveIndexes returns the indexes of the running fleet.
func (f *liveFleet) liveIndexes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []int
	for i, d := range f.daemons {
		if d != nil && !f.gone[i] {
			out = append(out, i)
		}
	}
	return out
}

// all returns every daemon ever started, for cleanup.
func (f *liveFleet) all() []Daemon {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Daemon, 0, len(f.daemons))
	for _, d := range f.daemons {
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}

// Run executes a validated scenario against real daemons: expands the
// deterministic plan, starts the fleet, replays every client's request
// schedule in wall-clock time, drives the fault timeline, scrapes the
// survivors, and evaluates the assertions. The returned report's plan
// section (and fingerprint) is byte-stable per (scenario, seed); the
// measured sections are the run's evidence.
func Run(sc *Scenario, seed uint64, opts RunOptions) (*Report, error) {
	if opts.StartDaemon == nil {
		return nil, fmt.Errorf("scenario: RunOptions.StartDaemon is required")
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	client := opts.Client
	if client == nil {
		to := sc.Daemons.ReqTimeout
		if to <= 0 {
			to = 60 * time.Second
		}
		client = &http.Client{Timeout: to + 5*time.Second}
	}
	readyTO := opts.ReadyTimeout
	if readyTO <= 0 {
		readyTO = 60 * time.Second
	}

	plan := BuildPlan(sc, seed)
	logf("plan: %d clients, %d requests, %d faults (fingerprint %.16s…)",
		len(plan.Clients), plan.TotalRequests(), len(plan.Faults), plan.Fingerprint)

	startedAt := time.Now()

	// Start the fleet. Joiners (join_node events) start later, through
	// the fault timeline.
	daemons := make([]Daemon, sc.Daemons.Count)
	fl := newLiveFleet(daemons)
	defer func() {
		for _, d := range fl.all() {
			d.Close()
		}
	}()
	for i := range daemons {
		d, err := opts.StartDaemon(i)
		if err != nil {
			return nil, fmt.Errorf("scenario: daemon %d: %w", i, err)
		}
		daemons[i] = d
		fl.add(i, d)
	}
	readyCtx, cancelReady := context.WithTimeout(context.Background(), readyTO)
	for i, d := range daemons {
		if err := d.WaitReady(readyCtx); err != nil {
			cancelReady()
			return nil, fmt.Errorf("scenario: daemon %d never became ready: %w", i, err)
		}
	}
	cancelReady()
	startup := time.Since(startedAt)
	logf("fleet: %d daemon(s) ready in %v", len(daemons), startup.Round(time.Millisecond))

	// t0 is the run's virtual-time origin: every planned offset is
	// replayed relative to it. A client that falls behind (a slow
	// response ate its think time) issues immediately — schedules are
	// earliest-start times, not exact timestamps.
	t0 := time.Now()
	var notes syncNotes

	// Fault timeline.
	outcome := &Outcome{FaultsByPoint: map[string]int64{}, EndpointHits: map[string]int64{}}
	var faultWG sync.WaitGroup
	var om sync.Mutex // guards outcome's fault/recovery fields during the run
	faultWG.Add(1)
	go func() {
		defer faultWG.Done()
		runFaults(plan.Faults, fl, opts.StartJoiner, t0, readyTO, client, &om, outcome, &notes, logf)
	}()

	// Client fleet: one goroutine per client, each with its own sample
	// slice (no shared state on the hot path). Retry jitter draws from a
	// per-client generator — runtime-only randomness, so the plan (the
	// determinism contract) is untouched; the seed salt differs from the
	// planner's so retry draws never correlate with planned schedules.
	perClient := make([][]sample, len(plan.Clients))
	var clientWG sync.WaitGroup
	for i := range plan.Clients {
		clientWG.Add(1)
		go func(i int) {
			defer clientWG.Done()
			pol := retryPolicy(sc.Fleet.Retry, seed, i)
			perClient[i] = runClient(&plan.Clients[i], daemons, t0, client, pol)
		}(i)
	}
	clientWG.Wait()
	faultWG.Wait()
	wall := time.Since(startedAt)

	// Aggregate traffic, then graft the fault/recovery fields collected
	// during the run and the final scrapes on top.
	var samples []sample
	for _, s := range perClient {
		samples = append(samples, s...)
	}
	agg := aggregate(samples)
	agg.FaultsByPoint = outcome.FaultsByPoint
	agg.Kills = outcome.Kills
	agg.Restarts = outcome.Restarts
	agg.Recoveries = outcome.Recoveries
	agg.Joins = outcome.Joins
	agg.Decommissions = outcome.Decommissions

	// Settle window: give the fleet a bounded chance to converge —
	// heartbeats fold membership views, the anti-entropy sweeper heals
	// replica holes, journals drain — before the verdict scrape.
	// Runtime-only; the deterministic report sections are untouched.
	if sc.Daemons.Cluster() && sc.Assert.Settle > 0 {
		settleStart := time.Now()
		var quiet syncNotes // polling noise is not run evidence
		for {
			probe := &Outcome{}
			scrapeCluster(fl.live(), client, probe, &quiet)
			if probe.ClusterConverged && probe.ReplicationConverged && probe.PendingJobs == 0 {
				logf("settle: fleet converged in %v", time.Since(settleStart).Round(time.Millisecond))
				break
			}
			if time.Since(settleStart) >= sc.Assert.Settle {
				logf("settle: window %v exhausted without convergence", sc.Assert.Settle)
				break
			}
			time.Sleep(250 * time.Millisecond)
		}
	}

	scrapeDaemons(fl.live(), client, agg, &notes)
	if sc.Daemons.Cluster() {
		scrapeCluster(fl.live(), client, agg, &notes)
	}
	agg.FaultsInjected = agg.Kills
	for _, n := range agg.FaultsByPoint {
		agg.FaultsInjected += n
	}

	t := Timings{
		StartedAt:  startedAt.UTC().Format(time.RFC3339),
		FinishedAt: time.Now().UTC().Format(time.RFC3339),
		Wall:       wall,
		Startup:    startup,
	}
	rep := NewReport(sc, seed, plan, agg, t, notes.take())
	logf("run: %d requests in %v — %s", agg.Total, wall.Round(time.Millisecond), verdict(rep))
	return rep, nil
}

func verdict(r *Report) string {
	if r.Pass {
		return "PASS"
	}
	return "FAIL"
}

// syncNotes collects non-fatal runner warnings.
type syncNotes struct {
	mu    sync.Mutex
	notes []string
}

func (n *syncNotes) add(format string, args ...any) {
	n.mu.Lock()
	n.notes = append(n.notes, fmt.Sprintf(format, args...))
	n.mu.Unlock()
}

func (n *syncNotes) take() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.notes
}

// retryPolicy builds client i's httpretry policy from the fleet spec.
// A zero-valued spec returns a Max=0 policy, which issue treats as
// plain single-attempt Gets.
func retryPolicy(rs RetrySpec, seed uint64, i int) httpretry.Policy {
	if rs.Max <= 0 {
		return httpretry.Policy{}
	}
	rnd := progen.NewRand(seed ^ (uint64(i)+1)*0x517cc1b727220a95)
	return httpretry.Policy{
		Max:    rs.Max,
		Base:   rs.Base,
		Cap:    rs.Cap,
		Jitter: func() float64 { return float64(rnd.Next()>>11) / float64(uint64(1)<<53) },
	}
}

// runClient replays one client's planned request schedule against its
// daemon. Offsets are earliest-start times: the client sleeps until
// each request's planned time, or issues immediately when already past
// it.
func runClient(cp *ClientPlan, daemons []Daemon, t0 time.Time, client *http.Client, pol httpretry.Policy) []sample {
	d := daemons[cp.Daemon]
	out := make([]sample, 0, len(cp.Requests))
	for i := range cp.Requests {
		rq := &cp.Requests[i]
		if wait := time.Until(t0.Add(rq.At)); wait > 0 {
			time.Sleep(wait)
		}
		out = append(out, issue(client, d.URL(), rq, pol))
	}
	return out
}

// issue performs one planned request and records its outcome. With a
// retry budget (fleet.retry), shed answers (429/503, honoring
// Retry-After) and transient failures back off and re-issue; the
// sample's latency then covers the whole exchange, backoffs included,
// and its status is the final attempt's answer.
func issue(client *http.Client, base string, rq *RequestPlan, pol httpretry.Policy) sample {
	var url string
	switch rq.Endpoint {
	case "simulate":
		url = fmt.Sprintf("%s/simulate?bench=%s&policy=%s", base, rq.Bench, rq.Policy)
	case "stats":
		url = base + "/stats"
	case "readyz":
		url = base + "/readyz"
	}
	s := sample{endpoint: rq.Endpoint}
	start := time.Now()
	var resp *http.Response
	var err error
	if pol.Max > 0 {
		var res httpretry.Result
		resp, res, err = httpretry.Get(client, url, pol)
		s.retries = res.Retries
		s.exhausted = res.Exhausted
	} else {
		resp, err = client.Get(url)
	}
	s.latency = time.Since(start)
	if err != nil {
		return s // status 0: transport failure (daemon down, timeout)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	s.status = resp.StatusCode
	if hdr := resp.Header.Get("X-Tlsd-Cache"); hdr != "" {
		s.cacheHdr = true
		s.cacheHit = hdr == "hit"
	}
	return s
}

// runFaults drives the scenario's fault timeline: arming point faults
// over the /_faults surface, SIGKILLing (and restarting) daemons, and
// executing membership actions (join, decommission, rolling restart)
// at their scheduled offsets. Events are sorted by At, so a plain
// sleep walks the timeline.
func runFaults(events []FaultEvent, fl *liveFleet, startJoiner func(int, string) (Daemon, error),
	t0 time.Time, readyTO time.Duration,
	client *http.Client, om *sync.Mutex, o *Outcome, notes *syncNotes, logf func(string, ...any)) {
	// Heals run off-timeline (a 10s partition healing at +8s must not
	// stall the +9s event), but must land before the final scrape reads
	// the fleet's converged state.
	var healWG sync.WaitGroup
	defer healWG.Wait()
	for i := range events {
		ev := &events[i]
		if wait := time.Until(t0.Add(ev.At)); wait > 0 {
			time.Sleep(wait)
		}
		if ev.Kind == "join_node" {
			joinNode(ev, fl, startJoiner, readyTO, om, o, notes, logf)
			continue
		}
		if ev.Kind == "rolling_restart" {
			rollingRestart(ev, fl, readyTO, om, o, notes, logf)
			continue
		}
		d := fl.get(ev.Target)
		if d == nil {
			notes.add("fault at %v: daemon %d is not running (never joined, or decommissioned)", ev.At, ev.Target)
			continue
		}
		switch ev.Kind {
		case "point":
			spec := ev.ArmSpecString()
			if err := armFault(client, d.URL(), spec); err != nil {
				notes.add("fault at %v: arming %q on daemon %d failed: %v", ev.At, spec, ev.Target, err)
				continue
			}
			logf("fault: armed %q on daemon %d at +%v", spec, ev.Target, ev.At)
		case "partition", "slow_peer":
			spec := ev.ArmSpecString()
			if err := armFault(client, d.URL(), spec); err != nil {
				notes.add("fault at %v: %s of daemon %d failed to arm: %v", ev.At, ev.Kind, ev.Target, err)
				continue
			}
			logf("fault: %s on daemon %d at +%v (%q)", ev.Kind, ev.Target, ev.At, spec)
			if ev.Heal <= 0 {
				continue
			}
			healWG.Add(1)
			go func(ev *FaultEvent, base string) {
				defer healWG.Done()
				time.Sleep(ev.Heal)
				if err := healClusterFaults(client, base); err != nil {
					notes.add("fault at %v: healing %s on daemon %d failed: %v", ev.At, ev.Kind, ev.Target, err)
					return
				}
				logf("fault: healed %s on daemon %d at +%v", ev.Kind, ev.Target, ev.At+ev.Heal)
			}(ev, d.URL())
		case "kill":
			if err := d.Kill(); err != nil {
				notes.add("fault at %v: kill of daemon %d failed: %v", ev.At, ev.Target, err)
				continue
			}
			om.Lock()
			o.Kills++
			om.Unlock()
			logf("fault: SIGKILLed daemon %d at +%v", ev.Target, ev.At)
			if !ev.Restart {
				continue
			}
			if ev.Delay > 0 {
				time.Sleep(ev.Delay)
			}
			restartStart := time.Now()
			if err := d.Restart(); err != nil {
				notes.add("fault at %v: restart of daemon %d failed: %v", ev.At, ev.Target, err)
				continue
			}
			om.Lock()
			o.Restarts++
			om.Unlock()
			ctx, cancel := context.WithTimeout(context.Background(), readyTO)
			err := d.WaitReady(ctx)
			cancel()
			if err != nil {
				notes.add("fault at %v: daemon %d never recovered: %v", ev.At, ev.Target, err)
				continue
			}
			rec := time.Since(restartStart)
			om.Lock()
			o.Recoveries = append(o.Recoveries, rec)
			om.Unlock()
			logf("fault: daemon %d recovered in %v", ev.Target, rec.Round(time.Millisecond))
		case "decommission_node":
			// The drain inside tlsd can take up to its 10s deadline plus
			// the artifact handoff; give the call its own generous client.
			dc := &http.Client{Timeout: 30 * time.Second}
			resp, err := dc.Post(d.URL()+"/cluster/decommission", "application/json", nil)
			if err != nil {
				notes.add("fault at %v: decommission of daemon %d failed: %v", ev.At, ev.Target, err)
				continue
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				notes.add("fault at %v: decommission of daemon %d answered %d: %s",
					ev.At, ev.Target, resp.StatusCode, strings.TrimSpace(string(body)))
				continue
			}
			// The node has left the member set and handed off its
			// artifacts; retire the process and stop scraping it.
			fl.markGone(ev.Target)
			_ = d.Kill()
			om.Lock()
			o.Decommissions++
			om.Unlock()
			logf("fault: daemon %d decommissioned at +%v", ev.Target, ev.At)
		}
	}
}

// joinNode starts daemon ev.Target as a joiner seeded from the first
// live member and folds it into the fleet once ready.
func joinNode(ev *FaultEvent, fl *liveFleet, startJoiner func(int, string) (Daemon, error),
	readyTO time.Duration, om *sync.Mutex, o *Outcome, notes *syncNotes, logf func(string, ...any)) {
	if startJoiner == nil {
		notes.add("fault at %v: join_node needs a StartJoiner launcher (RunOptions.StartJoiner is nil)", ev.At)
		return
	}
	live := fl.live()
	if len(live) == 0 {
		notes.add("fault at %v: join_node has no live member to join via", ev.At)
		return
	}
	d, err := startJoiner(ev.Target, live[0].URL())
	if err != nil {
		notes.add("fault at %v: starting joiner %d failed: %v", ev.At, ev.Target, err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), readyTO)
	err = d.WaitReady(ctx)
	cancel()
	if err != nil {
		d.Close()
		notes.add("fault at %v: joiner %d never became ready: %v", ev.At, ev.Target, err)
		return
	}
	fl.add(ev.Target, d)
	om.Lock()
	o.Joins++
	om.Unlock()
	logf("fault: daemon %d joined the cluster at +%v", ev.Target, ev.At)
}

// rollingRestart kills and restarts every live node in sequence — the
// upgrade drill: at most one node is down at any moment, and each must
// recover (journal replay through execution leases, membership catch-up)
// before the next goes down.
func rollingRestart(ev *FaultEvent, fl *liveFleet, readyTO time.Duration,
	om *sync.Mutex, o *Outcome, notes *syncNotes, logf func(string, ...any)) {
	idxs := fl.liveIndexes()
	logf("fault: rolling restart of %d node(s) at +%v", len(idxs), ev.At)
	for _, i := range idxs {
		d := fl.get(i)
		if d == nil {
			continue // decommissioned mid-roll
		}
		if err := d.Kill(); err != nil {
			notes.add("fault at %v: rolling restart: kill of daemon %d failed: %v", ev.At, i, err)
			continue
		}
		om.Lock()
		o.Kills++
		om.Unlock()
		if ev.Delay > 0 {
			time.Sleep(ev.Delay)
		}
		restartStart := time.Now()
		if err := d.Restart(); err != nil {
			notes.add("fault at %v: rolling restart: restart of daemon %d failed: %v", ev.At, i, err)
			continue
		}
		om.Lock()
		o.Restarts++
		om.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), readyTO)
		err := d.WaitReady(ctx)
		cancel()
		if err != nil {
			notes.add("fault at %v: rolling restart: daemon %d never recovered: %v", ev.At, i, err)
			continue
		}
		rec := time.Since(restartStart)
		om.Lock()
		o.Recoveries = append(o.Recoveries, rec)
		om.Unlock()
		logf("fault: rolling restart: daemon %d back in %v", i, rec.Round(time.Millisecond))
	}
}

// armFault POSTs one spec to a daemon's /_faults/arm endpoint.
func armFault(client *http.Client, base, spec string) error {
	resp, err := client.Post(base+"/_faults/arm?spec="+url.QueryEscape(spec), "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("arm answered %d", resp.StatusCode)
	}
	return nil
}

// healClusterFaults disarms the cluster fault points (point-wise, so
// fired counters survive as evidence the fault actually bit).
func healClusterFaults(client *http.Client, base string) error {
	q := ""
	for _, pt := range ClusterFaultPoints {
		if q != "" {
			q += "&"
		}
		q += "point=" + url.QueryEscape(pt)
	}
	resp, err := client.Post(base+"/_faults/reset?"+q, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reset answered %d", resp.StatusCode)
	}
	return nil
}

// scrapeDaemons collects each surviving daemon's final state: /readyz
// status (convergence + corruption evidence) and, where the fault
// surface is up, the /_faults fired counters — the proof the chaos
// schedule actually executed.
func scrapeDaemons(daemons []Daemon, client *http.Client, o *Outcome, notes *syncNotes) {
	for i, d := range daemons {
		var rz struct {
			Status      string `json:"status"`
			Quarantined int64  `json:"quarantined"`
			DiskErrors  int64  `json:"disk_errors"`
			Journal     *struct {
				AppendErrors int64 `json:"append_errors"`
			} `json:"journal"`
		}
		if err := getJSON(client, d.URL()+"/readyz", &rz); err != nil {
			notes.add("final scrape: daemon %d /readyz unreachable: %v", i, err)
			o.FinalReady = append(o.FinalReady, "unreachable")
		} else {
			o.FinalReady = append(o.FinalReady, rz.Status)
			o.Quarantined += rz.Quarantined
			o.DiskErrors += rz.DiskErrors
			if rz.Journal != nil {
				o.JournalBad += rz.Journal.AppendErrors
			}
		}
		var fs struct {
			Fired map[string]int64 `json:"fired"`
		}
		if err := getJSON(client, d.URL()+"/_faults", &fs); err == nil {
			keys := make([]string, 0, len(fs.Fired))
			for pt := range fs.Fired {
				keys = append(keys, pt)
			}
			sort.Strings(keys)
			for _, pt := range keys {
				o.FaultsByPoint[pt] += fs.Fired[pt]
			}
		}
	}
}

// scrapeCluster collects the fleet's final cluster view from every
// node's /cluster endpoint: per-key execution counters summed across
// the fleet (>1 for any key = double-compute), adoption ledgers,
// journal backlogs, and whether every node converged back to a full
// quorum view. This is the evidence the cluster assertions judge.
func scrapeCluster(daemons []Daemon, client *http.Client, o *Outcome, notes *syncNotes) {
	execTotals := map[string]int64{}
	execWhere := map[string][]string{}
	converged := true
	membersAgree := true
	var memberNodes []string // the first reachable node's member set
	var memberEpoch uint64
	var vnodes, replicas int
	haveView := false
	holdings := map[string]map[string]bool{} // node id -> keys it stores
	for i, d := range daemons {
		var cl struct {
			Cluster struct {
				Self        string   `json:"self"`
				Nodes       []string `json:"nodes"`
				MemberEpoch uint64   `json:"member_epoch"`
				VNodes      int      `json:"vnodes"`
				Replicas    int      `json:"replicas"`
				Quorum      bool     `json:"quorum"`
				Alive       int      `json:"alive"`
				Adoptions   []struct {
					Key  string `json:"key"`
					Done bool   `json:"done"`
				} `json:"adoptions"`
			} `json:"cluster"`
			Executions     map[string]int64 `json:"executions"`
			JournalPending int64            `json:"journal_pending"`
			StoreKeys      []string         `json:"store_keys"`
		}
		if err := getJSON(client, d.URL()+"/cluster", &cl); err != nil {
			notes.add("final scrape: daemon %d /cluster unreachable: %v", i, err)
			o.FinalCluster = append(o.FinalCluster, fmt.Sprintf("n%d: unreachable", i))
			converged = false
			continue
		}
		// Membership agreement: every live node must report the same
		// member set at the same epoch, or the views never converged.
		if !haveView {
			haveView = true
			memberNodes = cl.Cluster.Nodes
			memberEpoch = cl.Cluster.MemberEpoch
			vnodes = cl.Cluster.VNodes
			replicas = cl.Cluster.Replicas
		} else if cl.Cluster.MemberEpoch != memberEpoch ||
			strings.Join(cl.Cluster.Nodes, ",") != strings.Join(memberNodes, ",") {
			membersAgree = false
			notes.add("cluster: %s disagrees on membership: epoch %d %v (vs epoch %d %v)",
				cl.Cluster.Self, cl.Cluster.MemberEpoch, cl.Cluster.Nodes, memberEpoch, memberNodes)
		}
		keys := map[string]bool{}
		for _, k := range cl.StoreKeys {
			keys[k] = true
		}
		holdings[cl.Cluster.Self] = keys
		for k, n := range cl.Executions {
			execTotals[k] += n
			execWhere[k] = append(execWhere[k], fmt.Sprintf("%s×%d", cl.Cluster.Self, n))
		}
		for _, a := range cl.Cluster.Adoptions {
			o.Adoptions++
			if a.Done {
				o.AdoptionsDone++
			}
		}
		o.PendingJobs += cl.JournalPending
		nodeOK := cl.Cluster.Quorum && cl.Cluster.Alive == len(cl.Cluster.Nodes)
		converged = converged && nodeOK
		o.FinalCluster = append(o.FinalCluster,
			fmt.Sprintf("%s: alive %d/%d quorum=%v pending=%d epoch=%d keys=%d",
				cl.Cluster.Self, cl.Cluster.Alive, len(cl.Cluster.Nodes), cl.Cluster.Quorum,
				cl.JournalPending, cl.Cluster.MemberEpoch, len(cl.StoreKeys)))
	}
	for k, n := range execTotals {
		if n > o.MaxKeyExecutions {
			o.MaxKeyExecutions = n
		}
		if n > 1 {
			o.DoubleExecuted++
			// Name the offenders: "which key, on which nodes" is the
			// first question a failing max_key_executions assertion asks.
			sort.Strings(execWhere[k])
			notes.add("cluster: key %s executed %d times (%s)", k, n, strings.Join(execWhere[k], " "))
		}
	}
	o.ClusterConverged = converged && membersAgree && len(daemons) > 0

	// Replica-placement audit: rebuild the agreed ring and check every
	// artifact anyone holds sits on every member of its replica chain.
	// A hole is one missing copy; an orphan has NO copy on its chain
	// (nothing repairs it back onto the chain). Dead or missing
	// chain members count as holes — convergence means the data really
	// is where the ring says.
	o.ReplicationConverged = false
	if haveView && membersAgree {
		ring := cluster.NewRing(memberNodes, vnodes)
		union := map[string]bool{}
		for _, keys := range holdings {
			for k := range keys {
				union[k] = true
			}
		}
		sortedKeys := make([]string, 0, len(union))
		for k := range union {
			sortedKeys = append(sortedKeys, k)
		}
		sort.Strings(sortedKeys)
		for _, k := range sortedKeys {
			onChain := false
			for _, id := range ring.Successors(k, replicas+1) {
				if holdings[id][k] {
					onChain = true
				} else {
					o.ReplicaHoles++
				}
			}
			if !onChain {
				o.OrphanedArtifacts++
				notes.add("cluster: artifact %s has no copy on its replica chain %v", k, ring.Successors(k, replicas+1))
			}
		}
		o.ReplicationConverged = o.ReplicaHoles == 0
	}
}

// getJSON fetches and decodes one JSON endpoint. Non-2xx statuses are
// not errors here: /readyz answers 503 while draining and its body is
// still the scrape.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
