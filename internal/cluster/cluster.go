package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"tlssync/internal/store"
)

// Job is one journaled-pending unit of work as gossiped in
// heartbeats: enough for a successor to re-run it from scratch (the
// journal key it re-begins under, the artifact key for ring placement
// and the lease, and the bench/label pair that regenerates the
// artifact deterministically).
type Job struct {
	Key   string `json:"key"`   // journal/engine key
	AKey  string `json:"akey"`  // artifact key: ring placement + store lookup
	Bench string `json:"bench"` // benchmark name
	Label string `json:"label"` // policy label
}

// Heartbeat is one node's gossip payload: identity, boot epoch,
// readiness, and its journaled-pending jobs. The pending list is the
// cluster's safety net — it is what a successor adopts if this node
// dies before committing. Members/MemberEpoch/URLs gossip the
// versioned member set: a probe that sees a strictly higher member
// epoch folds the new view in, which is how joins and decommissions
// reach nodes that missed the direct broadcast. Refused, in the answer
// to a probe that carried lease renewals, names the renewals this
// member did not accept.
type Heartbeat struct {
	Node        string            `json:"node"`
	Epoch       uint64            `json:"epoch"`
	Status      string            `json:"status"`
	Pending     []Job             `json:"pending,omitempty"`
	Members     []string          `json:"members,omitempty"`
	MemberEpoch uint64            `json:"member_epoch,omitempty"`
	URLs        map[string]string `json:"urls,omitempty"`
	Refused     []string          `json:"refused,omitempty"`
}

// Adoption records one job taken over from a dead peer (Epoch is the
// dead node's boot epoch as of its last heartbeat). The record is
// operator evidence only: the adopter journals the job as its own
// Begin, and the execution lease keeps the rebooted owner from running
// it a second time. Done flips once the artifact exists.
type Adoption struct {
	Job
	From  string `json:"from"`
	Epoch uint64 `json:"epoch"`
	Done  bool   `json:"done"`
}

// Config wires a Cluster to its daemon. Only Self and Nodes are
// mandatory; every callback is optional (a nil callback disables the
// corresponding feature, which keeps unit tests small).
type Config struct {
	Self  string   // this node's id, must appear in Nodes
	Nodes []string // boot membership, including Self (the live set may grow/shrink)

	// SelfURL is this node's advertised base URL, gossiped to peers so
	// late joiners learn how to reach everyone ("" disables).
	SelfURL string

	// MemberEpoch is the member-set version this node boots with (0
	// for a seed boot; a joiner boots with the epoch its join answer
	// named). The live epoch only moves forward.
	MemberEpoch uint64
	// MembersFile, when set, persists the live member set
	// ({epoch, members, urls} JSON, written atomically on every
	// change) so a rebooted node resumes the dynamic membership even
	// though its -peers flag still names the boot-time set.
	MembersFile string

	// URLs maps node id → base URL (http://host:port). Entries may be
	// missing at boot (peers not yet started); PeersFile supplements
	// them as the fleet comes up.
	URLs map[string]string
	// PeersFile, when set, is re-read whenever its mtime changes:
	// "id url" per line, # comments. This is how tlssim publishes the
	// dynamically-chosen ports of a fleet (including new ports after a
	// restart) without restarting peers.
	PeersFile string

	// Replicas is the number of ring successors (beyond the owner)
	// that receive a copy of each committed artifact (<=0: 1).
	Replicas int
	// VNodes per member on the ring (<=0: DefaultVNodes).
	VNodes int

	// Epoch is this node's boot incarnation counter (persisted and
	// incremented by the daemon at every start; 0 is treated as 1).
	Epoch uint64

	// HeartbeatEvery is the probe period, which is also the lease
	// renewal period (<=0: 500ms). DeadAfter is the silence before a
	// peer is dead (<=0: 4×heartbeat); execution leases expire
	// DeadAfter/2 after their last renewal.
	HeartbeatEvery time.Duration
	DeadAfter      time.Duration

	// FS is the filesystem seam used for the members/peers
	// files (nil: store.OS). Chaos tests inject a fault.FS here so
	// membership persistence sees the same injected failures as the
	// artifact store.
	FS store.FS

	// Client issues all peer HTTP calls (nil: 2s-timeout client).
	Client *http.Client
	Logf   func(format string, args ...any)

	// Fire, when non-nil, is consulted before every outbound peer call
	// with the point "cluster.out" — the fault-injection seam that
	// partition and slow_peer scenarios arm. An error fails the call.
	Fire func(point string) error

	// SendQueue bounds the replication sender's backlog (<=0: 512).
	// A full queue drops the push (accounted, never blocking the
	// commit path) — anti-entropy repairs the hole within one sweep.
	SendQueue int

	// SweepEvery is the anti-entropy period (<=0: sweeper disabled).
	// Each sweep exchanges key digests with the alive peers, pushes
	// artifacts a replica-chain member is missing, and pulls holes in
	// this node's own chains.
	SweepEvery time.Duration

	// LocalPending returns this node's journaled-pending jobs for the
	// heartbeat payload.
	LocalPending func() []Job
	// LocalStatus returns this node's readiness string ("ok",
	// "draining", ...) for the heartbeat payload.
	LocalStatus func() string
	// Adopt is called (from the detector goroutine) once per job this
	// node adopts from a dead peer; implementations must not block.
	Adopt func(job Job, from string, epoch uint64)
	// LocalKeys returns this node's artifact keys (the anti-entropy
	// digest); nil disables the sweeper and decommission handoff.
	LocalKeys func() []string
	// LocalGet returns one local artifact's bytes for a repair push.
	LocalGet func(key string) ([]byte, bool)
	// StoreLocal stores a pulled or lease-committed artifact
	// (validation included).
	StoreLocal func(key string, data []byte) error
}

// peer is the detector's view of one remote member.
type peer struct {
	id       string
	url      string
	everSeen bool      // at least one heartbeat ever succeeded
	alive    bool      // last declared state (transitions are logged/acted on)
	suspect  bool      // silent past DeadAfter/2 but not yet dead (no adoption)
	probing  bool      // a heartbeat to this peer is in flight
	lastOK   time.Time // last successful heartbeat
	epoch    uint64
	status   string
	pending  []Job
}

// counters is the cluster's operational accounting, guarded by
// Cluster.mu and surfaced verbatim in Status.
type counters struct {
	repQueued    int64 // replication pushes accepted into the sender queue
	repPushed    int64 // replication pushes delivered
	repFailed    int64 // replication pushes that failed after the retry
	repDropped   int64 // replication pushes dropped on a full queue
	sweeps       int64 // anti-entropy sweeps completed
	repairPushed int64 // artifacts pushed to a replica that lacked them
	repairPulled int64 // holes in this node's own chains pulled back
	sweepErrors  int64 // digest/push/pull failures during sweeps
	rebalances   int64 // membership changes applied (ring rebuilds)
}

// repTask is one queued replication push; targets are resolved at
// send time so a push enqueued mid-rebalance lands on the live chain.
type repTask struct {
	akey string
	data []byte
	have []string // peers that already store it
}

// Cluster is one node's membership, routing, and failure-detection
// state. All exported methods are safe for concurrent use.
type Cluster struct {
	cfg Config

	mu          sync.Mutex
	ring        *Ring    // rebuilt on membership change; read under mu
	members     []string // live member set, sorted
	memberEpoch uint64
	peers       map[string]*peer
	fileAddrs   map[string]string // every "id url" the peersfile ever named
	adoptions   []Adoption
	adopted     map[string]bool // "node@epoch/key" already adopted (dedupe across ticks)
	fileMtime   time.Time
	ctr         counters
	leases      map[string]map[string]memberLease // member lease table: key → holder → record
	held        map[string]*Lease                 // leases this node holds
	closed      bool                              // Close began: no new background calls
	bg          sync.WaitGroup                    // heartbeat probes and lease releases in flight

	sendQ     chan repTask
	senderWG  sync.WaitGroup
	sweepTrig chan struct{} // buffered; membership changes nudge the sweeper

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	now func() time.Time // test hook
}

// New validates the config and builds the cluster state. Call Start
// to launch the failure detector.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: empty self id")
	}
	found := false
	seen := map[string]bool{}
	for _, n := range cfg.Nodes {
		if n == "" || strings.ContainsAny(n, " \t\n,=") {
			return nil, fmt.Errorf("cluster: bad node id %q", n)
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", n)
		}
		seen[n] = true
		found = found || n == cfg.Self
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q not in membership %v", cfg.Self, cfg.Nodes)
	}
	if len(cfg.Nodes) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 nodes, have %d", len(cfg.Nodes))
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 4 * cfg.HeartbeatEvery
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 2 * time.Second}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.FS == nil {
		cfg.FS = store.OS
	}
	if cfg.SendQueue <= 0 {
		cfg.SendQueue = 512
	}
	members := append([]string(nil), cfg.Nodes...)
	sort.Strings(members)
	c := &Cluster{
		cfg:         cfg,
		ring:        NewRing(members, cfg.VNodes),
		members:     members,
		memberEpoch: cfg.MemberEpoch,
		peers:       make(map[string]*peer),
		fileAddrs:   make(map[string]string),
		adopted:     make(map[string]bool),
		leases:      make(map[string]map[string]memberLease),
		held:        make(map[string]*Lease),
		sendQ:       make(chan repTask, cfg.SendQueue),
		sweepTrig:   make(chan struct{}, 1),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		now:         time.Now,
	}
	for _, n := range members {
		if n == cfg.Self {
			continue
		}
		c.peers[n] = &peer{id: n, url: cfg.URLs[n], status: "unknown"}
	}
	// A persisted member set from a previous incarnation wins over the
	// boot flags when it is newer and still contains self: the flags
	// name the seed-time fleet, the file names what it grew into.
	if err := c.loadMembersFile(); err != nil {
		cfg.Logf("cluster: members file ignored: %v", err)
	}
	if c.memberEpoch > 0 {
		c.saveMembersLocked()
	}
	return c, nil
}

// Start launches the failure detector, the bounded replication
// senders, and (when configured) the anti-entropy sweeper. Close
// stops them all.
func (c *Cluster) Start() {
	go c.detectorLoop()
	for i := 0; i < 2; i++ {
		c.senderWG.Add(1)
		go c.senderLoop()
	}
	if c.cfg.SweepEvery > 0 && c.cfg.LocalKeys != nil {
		c.senderWG.Add(1)
		go c.sweepLoop()
	}
}

// Close stops the detector, senders, and sweeper and waits for them
// and for the probes and lease releases still in flight.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
	c.senderWG.Wait()
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.bg.Wait()
}

// Self returns this node's id.
func (c *Cluster) Self() string { return c.cfg.Self }

// Epoch returns this node's boot epoch.
func (c *Cluster) Epoch() uint64 { return c.cfg.Epoch }

// Ring returns the current placement ring. Membership changes swap
// in a rebuilt ring; the returned snapshot is immutable.
func (c *Cluster) Ring() *Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

// Replicas returns the configured successor-copy count.
func (c *Cluster) Replicas() int { return c.cfg.Replicas }

// PeerURL returns the current base URL for a member id ("" if
// unknown or self).
func (c *Cluster) PeerURL(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.peers[id]; ok {
		return p.url
	}
	return ""
}

// SetPeerURL records a peer's base URL (normally fed by PeersFile;
// exported for tests and static -peers configs).
func (c *Cluster) SetPeerURL(id, url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.peers[id]; ok {
		p.url = strings.TrimSuffix(url, "/")
	}
}

// aliveLocked returns whether id currently counts as alive. Self is
// always alive from its own point of view.
func (c *Cluster) aliveLocked(id string) bool {
	if id == c.cfg.Self {
		return true
	}
	p, ok := c.peers[id]
	return ok && p.alive
}

// AliveIDs returns the ids currently considered alive (self
// included), sorted.
func (c *Cluster) AliveIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := []string{c.cfg.Self}
	for id, p := range c.peers {
		if p.alive {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Quorum reports whether this node can see a strict majority of the
// membership (itself included). Routing fails closed without quorum:
// a minority partition sheds cold work with 503 rather than running
// simulations that the majority side is also running — wasted compute
// and double-execution counters, even though the immutable store
// would make the results identical.
func (c *Cluster) Quorum() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quorumLocked()
}

func (c *Cluster) quorumLocked() bool { return 2*c.aliveCountLocked() > len(c.members) }

// aliveCountLocked counts the members currently alive (self included).
func (c *Cluster) aliveCountLocked() int {
	alive := 0
	for _, id := range c.members {
		if c.aliveLocked(id) {
			alive++
		}
	}
	return alive
}

// Route decides where a cold /simulate for akey must run: the first
// *alive* node on the key's successor chain. With every member alive
// this is the ring owner; when the owner is dead its successor acts,
// and ownership snaps back the moment the owner returns (the ring only
// changes on membership changes, never on failure). ok=false means no
// quorum: this node must shed the request (fail closed).
func (c *Cluster) Route(akey string) (node string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.quorumLocked() {
		return "", false
	}
	return c.actingOwnerLocked(akey), true
}

// actingOwnerLocked is the first alive node on akey's successor chain
// (self is always alive from its own point of view).
func (c *Cluster) actingOwnerLocked(akey string) string {
	for _, id := range c.ring.Successors(akey, len(c.members)) {
		if c.aliveLocked(id) {
			return id
		}
	}
	return c.cfg.Self
}

// HeartbeatPayload assembles this node's gossip answer, including the
// versioned member-set view and every peer address this node knows.
func (c *Cluster) HeartbeatPayload() Heartbeat {
	hb := Heartbeat{Node: c.cfg.Self, Epoch: c.cfg.Epoch, Status: "ok"}
	if c.cfg.LocalStatus != nil {
		hb.Status = c.cfg.LocalStatus()
	}
	if c.cfg.LocalPending != nil {
		hb.Pending = c.cfg.LocalPending()
	}
	v := c.View()
	hb.Members, hb.MemberEpoch, hb.URLs = v.Members, v.MemberEpoch, v.URLs
	return hb
}

// MarkAdoptionDone flips the Done flag of the adoption holding the
// given journal key (called by the daemon once the adopted job's
// artifact exists).
func (c *Cluster) MarkAdoptionDone(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.adoptions {
		if c.adoptions[i].Key == key {
			c.adoptions[i].Done = true
		}
	}
}

// fire triggers the outbound fault seam; a non-nil error means the
// scenario wants this peer call to fail (partition) and may have
// already delayed it (slow_peer).
func (c *Cluster) fire() error {
	if c.cfg.Fire == nil {
		return nil
	}
	return c.cfg.Fire("cluster.out")
}
