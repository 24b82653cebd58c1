package j001

import "context"

// Run is a miniature tlssync.Run: SimulateSpec (config: ExecuteFuncs)
// executes; server.acquireLease (config: LeaseFuncs) takes the
// execution lease that must structurally dominate it.
type Run struct{}

// SimulateSpec runs one simulation.
func (r *Run) SimulateSpec(label string) error { return nil }

// acquireLease takes the execution lease on a key.
func (s *server) acquireLease(ctx context.Context, key string) error { return nil }

// leased takes the lease on the spine before simulating, inside the
// job closure where the daemon does it: silent.
func (s *server) leased(ctx context.Context, r *Run) {
	s.jrn.Begin("sim", "k4")
	s.eng.Do(ctx, "sim/k4", func() {
		for {
			err := s.acquireLease(ctx, "k4")
			if err != nil {
				return
			}
			r.SimulateSpec("C")
			return
		}
	})
}

// unleased simulates with no lease: another node may be running the
// same key.
func (s *server) unleased(r *Run) {
	r.SimulateSpec("C") // want J001 "not dominated by an execution-lease acquire"
}

// leaseInBranch takes the lease on one path only: the branch does not
// dominate the simulation after it.
func (s *server) leaseInBranch(ctx context.Context, r *Run, retry bool) {
	if retry {
		s.acquireLease(ctx, "k5")
	}
	r.SimulateSpec("C") // want J001 "not dominated by an execution-lease acquire"
}
