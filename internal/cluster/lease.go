package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"tlssync/internal/store"
)

// Execution leases: a node runs a key's simulation only while it holds
// the key's lease. Acquire records {key, holder, boot epoch} at a
// majority, then reads the key back from a majority: no other live
// record and no member storing the artifact means the lease is held.
// Members expire a record TTL = DeadAfter/2 after its last renewal and
// never resurrect it; the holder renews on its heartbeats and commits
// its result to a majority as a final renewal that only a live record
// accepts. Since every commit reaches and every acquire reads a
// majority, an acquirer that starts after a commit always meets the
// artifact. docs/cluster.md ("Execution leases") has the full rules.

// LeaseRecord names one execution lease. Epoch is the holder's boot
// epoch, the fencing token: a record from an older incarnation never
// replaces, renews, commits or releases a newer one.
type LeaseRecord struct {
	Key    string `json:"key"`
	Holder string `json:"holder"`
	Epoch  uint64 `json:"epoch"`
}

var (
	// ErrLanded: the artifact already exists (locally, or pulled from a
	// member of the read majority); nothing to execute.
	ErrLanded = errors.New("artifact already computed")
	// ErrDeferred: another node holds the key's lease, or no majority
	// answered, and the caller asked not to wait.
	ErrDeferred = errors.New("another node holds the execution lease")
	// ErrLapsed: the lease ended before a majority took the commit.
	ErrLapsed   = errors.New("execution lease lapsed before commit")
	errNoQuorum = errors.New("no majority of members answered")
)

// memberLease is one record as a member holds it.
type memberLease struct {
	epoch   uint64
	expires time.Time
}

// Lease is one execution lease this node holds.
type Lease struct {
	c          *Cluster
	rec        LeaseRecord
	validUntil time.Time // guarded by c.mu
}

// LeaseTTL is how long a member keeps a record after its last renewal.
func (c *Cluster) LeaseTTL() time.Duration { return c.cfg.DeadAfter / 2 }

// Valid reports whether the holder may still commit.
func (l *Lease) Valid() bool {
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	return l.c.held[l.rec.Key] == l && l.c.now().Before(l.validUntil)
}

// extendLocked moves validity to sent+TTL if that is later.
func (l *Lease) extendLocked(sent time.Time) {
	if v := sent.Add(l.c.LeaseTTL()); v.After(l.validUntil) {
		l.validUntil = v
	}
}

// --- member side ---

// writeLeaseLocked applies an acquire write (renew=false) or a renewal
// (renew=true), reporting whether it was accepted. A write refuses only
// a record older than the holder's current one; a renewal needs a live
// record of the same epoch — once a record lapsed here a successor may
// have acquired through this member, so it is never brought back.
func (c *Cluster) writeLeaseLocked(rec LeaseRecord, renew bool) bool {
	now := c.now()
	cur, ok := c.leases[rec.Key][rec.Holder]
	if renew && (!ok || cur.epoch != rec.Epoch || !now.Before(cur.expires)) || ok && cur.epoch > rec.Epoch {
		return false
	}
	if c.leases[rec.Key] == nil {
		c.leases[rec.Key] = make(map[string]memberLease)
	}
	c.leases[rec.Key][rec.Holder] = memberLease{epoch: rec.Epoch, expires: now.Add(c.LeaseTTL())}
	return true
}

func (c *Cluster) dropLeaseLocked(rec LeaseRecord) {
	if cur, ok := c.leases[rec.Key][rec.Holder]; ok && cur.epoch == rec.Epoch {
		delete(c.leases[rec.Key], rec.Holder)
	}
}

// liveLeasesLocked returns key's live records sorted by holder,
// pruning expired records on the way (key "" prunes every key and
// returns nil).
func (c *Cluster) liveLeasesLocked(key string) []LeaseRecord {
	now := c.now()
	var out []LeaseRecord
	for k, tbl := range c.leases {
		if key != "" && k != key {
			continue
		}
		for holder, m := range tbl {
			if !now.Before(m.expires) {
				delete(tbl, holder)
			} else if key != "" {
				out = append(out, LeaseRecord{Key: k, Holder: holder, Epoch: m.epoch})
			}
		}
		if len(tbl) == 0 {
			delete(c.leases, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Holder < out[j].Holder })
	return out
}

// LeaseHolder returns the lowest-ID other node with a live record for
// key in this member's own table — where a retry can join the running
// execution — without asking anyone.
func (c *Cluster) LeaseHolder(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.liveLeasesLocked(key) {
		if r.Holder != c.cfg.Self {
			return r.Holder, true
		}
	}
	return "", false
}

// HoldsLease reports whether this node holds key's lease right now.
func (c *Cluster) HoldsLease(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.held[key] != nil
}

// leaseAnswer is a member's reply to a lease request.
type leaseAnswer struct {
	Leases []LeaseRecord `json:"leases,omitempty"`
	Have   bool          `json:"have"` // this member stores the artifact
}

// ServeLease is the member side of the lease protocol, one record per
// request in the query (key, holder, epoch):
//
//	GET    /cluster/lease?key=K          live records for K, and whether K is stored here
//	POST   /cluster/lease?...            acquire write
//	POST   /cluster/lease?...&commit=1   final renewal; the body is the artifact
//	DELETE /cluster/lease?...            release
func (c *Cluster) ServeLease(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	epoch, err := strconv.ParseUint(q.Get("epoch"), 10, 64)
	rec := LeaseRecord{Key: q.Get("key"), Holder: q.Get("holder"), Epoch: epoch}
	if !store.ValidKey(rec.Key) || r.Method != http.MethodGet && (err != nil || rec.Holder == "") {
		http.Error(w, "bad lease record", http.StatusBadRequest)
		return
	}
	var data []byte
	if q.Get("commit") != "" {
		if data, err = io.ReadAll(io.LimitReader(r.Body, 64<<20)); err != nil || c.cfg.StoreLocal == nil {
			http.Error(w, "cannot take a commit", http.StatusBadRequest)
			return
		}
	}
	ok := true
	var ans leaseAnswer
	c.mu.Lock()
	switch r.Method {
	case http.MethodGet:
		ans.Leases = c.liveLeasesLocked(rec.Key)
	case http.MethodPost:
		ok = c.writeLeaseLocked(rec, data != nil)
	case http.MethodDelete:
		c.dropLeaseLocked(rec)
	}
	c.mu.Unlock()
	switch {
	case !ok:
		http.Error(w, "no live record for this holder here", http.StatusConflict)
	case data != nil && c.cfg.StoreLocal(rec.Key, data) != nil:
		http.Error(w, "artifact rejected", http.StatusBadRequest)
	default:
		_, ans.Have = c.localGet(rec.Key)
		writeJSON(w, ans)
	}
}

// ServeHeartbeat answers the failure detector's probe. A POST carries
// the prober's lease renewals ([]LeaseRecord); the answer names the
// keys refused.
func (c *Cluster) ServeHeartbeat(w http.ResponseWriter, r *http.Request) {
	var renew []LeaseRecord
	if r.Method == http.MethodPost && json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&renew) != nil {
		http.Error(w, "bad renewal", http.StatusBadRequest)
		return
	}
	var refused []string
	c.mu.Lock()
	for _, rec := range renew {
		if !c.writeLeaseLocked(rec, true) {
			refused = append(refused, rec.Key)
		}
	}
	c.mu.Unlock()
	hb := c.HeartbeatPayload()
	hb.Refused = refused
	writeJSON(w, hb)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// --- holder side ---

// AcquireLease takes the execution lease on key for a run about to
// start, or returns ErrLanded when the artifact turns up instead. With
// wait=false a conflict or a missing majority returns ErrDeferred at
// once; with wait=true it follows the conflict rule until it holds the
// lease, the artifact lands, or ctx ends.
func (c *Cluster) AcquireLease(ctx context.Context, key string, wait bool) (*Lease, error) {
	var held *Lease
	fail := func(err error) (*Lease, error) {
		if held != nil {
			held.Release()
		}
		return nil, err
	}
	for {
		if _, ok := c.localGet(key); ok {
			return fail(ErrLanded)
		}
		var others []LeaseRecord
		l, ans, err := c.acquireOnce(ctx, key)
		if l != nil {
			held = l
		}
		if err == nil {
			if id := haveAt(ans); id != "" && c.pullInto(ctx, id, key) {
				return fail(ErrLanded)
			}
			if others = c.otherLeases(ans); len(others) == 0 && haveAt(ans) == "" {
				return held, nil
			}
		}
		if !wait {
			return fail(ErrDeferred)
		}
		if err != nil {
			err = c.pause(ctx)
		} else {
			// On a conflict the higher node ID drops its record and the
			// lower keeps it; both wait for the other's lease to end.
			if len(others) > 0 && others[0].Holder < c.cfg.Self && held != nil {
				held.Release()
				held = nil
			}
			err = c.awaitRelease(ctx, key, others)
		}
		if err != nil {
			return fail(err)
		}
	}
}

// haveAt names the lowest-ID member of a read that stores the artifact.
func haveAt(ans map[string]leaseAnswer) string {
	best := ""
	for id, a := range ans {
		if a.Have && (best == "" || id < best) {
			best = id
		}
	}
	return best
}

// otherLeases is every live record in a read that is not this
// incarnation's own, deduplicated and sorted by holder.
func (c *Cluster) otherLeases(ans map[string]leaseAnswer) []LeaseRecord {
	seen := map[LeaseRecord]bool{}
	var out []LeaseRecord
	for _, a := range ans {
		for _, r := range a.Leases {
			if (r.Holder != c.cfg.Self || r.Epoch != c.cfg.Epoch) && !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Holder < out[j].Holder })
	return out
}

// acquireOnce records this node's claim at a majority, then reads key
// back from a majority. The returned lease is held (and renewed) until
// Release, whatever the read shows.
func (c *Cluster) acquireOnce(ctx context.Context, key string) (*Lease, map[string]leaseAnswer, error) {
	rec := LeaseRecord{Key: key, Holder: c.cfg.Self, Epoch: c.cfg.Epoch}
	sent := c.now()
	c.mu.Lock()
	c.writeLeaseLocked(rec, false)
	c.mu.Unlock()
	if _, ok := c.quorum(ctx, http.MethodPost, rec, nil); !ok {
		c.mu.Lock()
		if c.held[key] == nil {
			c.releaseRecordLocked(rec)
		}
		c.mu.Unlock()
		return nil, nil, errNoQuorum
	}
	c.mu.Lock()
	l := c.held[key]
	if l == nil {
		l = &Lease{c: c, rec: rec}
		c.held[key] = l
	}
	l.extendLocked(sent)
	c.mu.Unlock()
	ans, err := c.readLeases(ctx, key)
	return l, ans, err
}

// readLeases asks a majority (self included) for key's live records.
func (c *Cluster) readLeases(ctx context.Context, key string) (map[string]leaseAnswer, error) {
	ans, ok := c.quorum(ctx, http.MethodGet, LeaseRecord{Key: key}, nil)
	if !ok {
		return nil, errNoQuorum
	}
	c.mu.Lock()
	self := leaseAnswer{Leases: c.liveLeasesLocked(key)}
	c.mu.Unlock()
	_, self.Have = c.localGet(key)
	ans[c.cfg.Self] = self
	return ans, nil
}

// awaitRelease polls majority reads until none of others is live any
// more (released or expired) or some member stores the artifact.
func (c *Cluster) awaitRelease(ctx context.Context, key string, others []LeaseRecord) error {
	for {
		if err := c.pause(ctx); err != nil {
			return err
		}
		ans, err := c.readLeases(ctx, key)
		if err != nil {
			continue
		}
		live := map[LeaseRecord]bool{}
		for _, r := range c.otherLeases(ans) {
			live[r] = true
		}
		still := false
		for _, o := range others {
			still = still || live[o]
		}
		if !still || haveAt(ans) != "" {
			return nil
		}
	}
}

// pause waits one heartbeat period.
func (c *Cluster) pause(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-c.stop:
		return errors.New("cluster: closed")
	case <-time.After(c.cfg.HeartbeatEvery):
		return nil
	}
}

// pullInto fetches key from one member and stores it locally.
func (c *Cluster) pullInto(ctx context.Context, id, key string) bool {
	if _, ok := c.localGet(key); ok || id == c.cfg.Self {
		return ok
	}
	base := c.PeerURL(id)
	if base == "" || c.cfg.StoreLocal == nil {
		return false
	}
	data, err := c.pullArtifact(ctx, base, key)
	return err == nil && c.cfg.StoreLocal(key, data) == nil
}

// Commit sends the result to a majority as the lease's final renewal
// and returns the peers that stored it. Members take it only while they
// still hold this lease live, so a nil error means a majority stored
// the artifact before any successor could acquire. The caller still
// checks Valid before storing and counting.
func (l *Lease) Commit(ctx context.Context, data []byte) ([]string, error) {
	c := l.c
	sent := c.now()
	c.mu.Lock()
	own := c.held[l.rec.Key] == l && c.writeLeaseLocked(l.rec, true)
	c.mu.Unlock()
	if !own {
		return nil, ErrLapsed
	}
	ans, ok := c.quorum(ctx, http.MethodPost, l.rec, data)
	if !ok {
		return nil, ErrLapsed
	}
	c.mu.Lock()
	l.extendLocked(sent)
	c.mu.Unlock()
	took := make([]string, 0, len(ans))
	for id := range ans {
		took = append(took, id)
	}
	return took, nil
}

// Release gives the lease up: renewals stop, and the members drop the
// record (those the release does not reach expire it after TTL).
func (l *Lease) Release() {
	c := l.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.held[l.rec.Key] != l {
		return // already released
	}
	delete(c.held, l.rec.Key)
	c.releaseRecordLocked(l.rec)
}

// releaseRecordLocked drops rec here and, in the background, at the
// alive peers.
func (c *Cluster) releaseRecordLocked(rec LeaseRecord) {
	c.dropLeaseLocked(rec)
	if c.closed {
		return
	}
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		c.quorum(context.Background(), http.MethodDelete, rec, nil)
	}()
}

// renewalRound counts, per key, the members that acknowledged one
// heartbeat round's renewals; a key whose count reaches a majority is
// valid until the round's send time + TTL.
type renewalRound struct {
	sent time.Time
	recs []LeaseRecord
	acks map[string]int
}

// startRenewalLocked opens a round over every held lease; self
// acknowledges its own renewals at send time, which alone is a
// majority when self is the only member (no peer answer will come).
func (c *Cluster) startRenewalLocked() *renewalRound {
	rd := &renewalRound{sent: c.now(), acks: map[string]int{}}
	for _, l := range c.held {
		rd.recs = append(rd.recs, l.rec)
		c.writeLeaseLocked(l.rec, true)
		if c.peerQuorumLocked() == 0 {
			l.extendLocked(rd.sent)
		}
	}
	return rd
}

// ackRenewalLocked folds one member's answer into its round.
func (c *Cluster) ackRenewalLocked(rd *renewalRound, refused []string) {
	skip := make(map[string]bool, len(refused))
	for _, k := range refused {
		skip[k] = true
	}
	for _, rec := range rd.recs {
		k := rec.Key
		if skip[k] {
			continue
		}
		rd.acks[k]++
		if l := c.held[k]; l != nil && rd.acks[k] >= c.peerQuorumLocked() {
			l.extendLocked(rd.sent)
		}
	}
}

// peerQuorumLocked is how many peers must answer, on top of self, for
// a majority of the members.
func (c *Cluster) peerQuorumLocked() int { return len(c.members) / 2 }

// quorum sends one lease request for rec to every alive, addressable
// peer in parallel and returns the answers by member once enough have
// succeeded for a majority of the members (self counts once) — false
// when every call finished short of that. Calls still in flight are
// cancelled; a release (DELETE) waits for them all.
func (c *Cluster) quorum(ctx context.Context, method string, rec LeaseRecord, commit []byte) (map[string]leaseAnswer, bool) {
	type target struct{ id, url string }
	c.mu.Lock()
	var targets []target
	for _, id := range c.members {
		if p, ok := c.peers[id]; ok && p.alive && p.url != "" {
			targets = append(targets, target{id, p.url})
		}
	}
	need := c.peerQuorumLocked()
	c.mu.Unlock()
	if method == http.MethodDelete {
		need = len(targets)
	}
	q := url.Values{"key": {rec.Key}}
	if method != http.MethodGet {
		q.Set("holder", rec.Holder)
		q.Set("epoch", strconv.FormatUint(rec.Epoch, 10))
	}
	if commit != nil {
		q.Set("commit", "1")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		id  string
		a   leaseAnswer
		err error
	}
	ch := make(chan result, len(targets))
	for _, t := range targets {
		go func(t target) {
			var a leaseAnswer
			err := c.peerCall(ctx, method, t.url+"/cluster/lease?"+q.Encode(), commit, &a)
			ch <- result{t.id, a, err}
		}(t)
	}
	ans := make(map[string]leaseAnswer, len(targets)+1)
	for range targets {
		if len(ans) >= need {
			break
		}
		if r := <-ch; r.err == nil {
			ans[r.id] = r.a
		}
	}
	return ans, len(ans) >= need
}
