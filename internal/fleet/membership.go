package fleet

import (
	"sync"
	"sync/atomic"
)

// Membership is the epoch-versioned member registry behind dynamic fleets:
// a mutable, normalized, sorted list of replica base URLs plus a counter
// that totally orders changes. Every replica (and every sweep coordinator)
// holds its own Membership and converges on the fleet-wide view by
// exchanging (members, epoch) snapshots over the existing peer links — a
// join or leave bumps the epoch, snapshots with a newer epoch are adopted
// wholesale, older ones are ignored, and equal-epoch disagreements (two
// concurrent changes that raced to the same counter value) are resolved by
// taking the union under a fresh epoch, which both sides compute
// identically and therefore agree on.
//
// The registry is transport-agnostic: internal/server propagates snapshots
// via POST /v1/join and /v1/leave and piggybacks them on /healthz, and the
// client-side fleet view (Options.AdoptMembers) applies snapshots its
// health probes observe. Membership itself only versions and merges lists.
type Membership struct {
	mu       sync.Mutex
	epoch    uint64
	members  []string // normalized, sorted, deduplicated
	onChange []func(members []string, epoch uint64)

	joins  atomic.Int64 // members added (announcements and adopted snapshots)
	leaves atomic.Int64 // members removed
}

// NewMembership builds a registry holding the initial members at epoch 0.
func NewMembership(initial []string) *Membership {
	return &Membership{members: Normalize(initial)}
}

// Members returns a copy of the current member list (sorted).
func (m *Membership) Members() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.members...)
}

// Epoch returns the current epoch.
func (m *Membership) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Snapshot returns the member list and epoch as one consistent pair.
func (m *Membership) Snapshot() ([]string, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.members...), m.epoch
}

// Contains reports whether url is currently a member.
func (m *Membership) Contains(url string) bool {
	url = NormalizeURL(url)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, u := range m.members {
		if u == url {
			return true
		}
	}
	return false
}

// Join adds url as a member, bumping the epoch. Reports whether the list
// changed (an already-present member is a no-op at the old epoch, so
// re-announcing a join is idempotent and does not churn the fleet).
func (m *Membership) Join(url string) bool {
	url = NormalizeURL(url)
	if url == "" {
		return false
	}
	m.mu.Lock()
	for _, u := range m.members {
		if u == url {
			m.mu.Unlock()
			return false
		}
	}
	m.members = Normalize(append(m.members, url))
	m.epoch++
	members, epoch := append([]string(nil), m.members...), m.epoch
	fns := append(make([]func([]string, uint64), 0, len(m.onChange)), m.onChange...)
	m.mu.Unlock()
	m.joins.Add(1)
	for _, fn := range fns {
		fn(members, epoch)
	}
	return true
}

// Leave removes url, bumping the epoch. Reports whether the list changed.
func (m *Membership) Leave(url string) bool {
	url = NormalizeURL(url)
	m.mu.Lock()
	kept := m.members[:0]
	removed := false
	for _, u := range m.members {
		if u == url {
			removed = true
			continue
		}
		kept = append(kept, u)
	}
	if !removed {
		m.mu.Unlock()
		return false
	}
	m.members = kept
	m.epoch++
	members, epoch := append([]string(nil), m.members...), m.epoch
	fns := append(make([]func([]string, uint64), 0, len(m.onChange)), m.onChange...)
	m.mu.Unlock()
	m.leaves.Add(1)
	for _, fn := range fns {
		fn(members, epoch)
	}
	return true
}

// Apply merges a (members, epoch) snapshot received from another replica.
// A strictly newer epoch replaces the local view; an equal epoch with an
// identical list is a no-op; an equal epoch with a different list is a
// concurrency conflict, resolved by adopting the union under epoch+1 (both
// conflicting sides compute the same union and the same successor epoch, so
// one more exchange converges them); an older epoch is ignored. Reports
// whether the local view changed — the caller then re-propagates its view
// so stragglers catch up.
//
// A list that is empty after normalization is refused at any epoch: a fleet
// always has at least one member, so an empty snapshot is malformed or
// hostile, and adopting it would wipe the view and gossip the wipe onward.
func (m *Membership) Apply(members []string, epoch uint64) bool {
	incoming := Normalize(members)
	if len(incoming) == 0 {
		return false
	}
	m.mu.Lock()
	switch {
	case epoch > m.epoch:
		// Newer view wins wholesale.
	case epoch < m.epoch:
		m.mu.Unlock()
		return false
	case equalMembers(incoming, m.members):
		m.mu.Unlock()
		return false
	default:
		// Same epoch, different lists: two changes raced. The union under
		// the successor epoch is a deterministic merge both sides agree on.
		incoming = Normalize(append(incoming, m.members...))
		epoch++
	}
	added, removed := diffMembers(m.members, incoming)
	m.members = incoming
	m.epoch = epoch
	snapshot, snapEpoch := append([]string(nil), m.members...), m.epoch
	fns := append(make([]func([]string, uint64), 0, len(m.onChange)), m.onChange...)
	m.mu.Unlock()
	m.joins.Add(int64(added))
	m.leaves.Add(int64(removed))
	for _, fn := range fns {
		fn(snapshot, snapEpoch)
	}
	return true
}

// OnChange registers a callback invoked (outside the registry lock) after
// every change with the new list and epoch. Callbacks must be fast; they run
// on the goroutine that applied the change.
func (m *Membership) OnChange(fn func(members []string, epoch uint64)) {
	m.mu.Lock()
	m.onChange = append(m.onChange, fn)
	m.mu.Unlock()
}

// Joins returns the total number of members ever added (including via
// adopted snapshots); Leaves the total removed. They feed the
// cdcs_fleet_joins_total metric and its drain-side sibling.
func (m *Membership) Joins() int64  { return m.joins.Load() }
func (m *Membership) Leaves() int64 { return m.leaves.Load() }

// equalMembers compares two normalized sorted lists.
func equalMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffMembers counts entries of next not in prev (added) and of prev not in
// next (removed); both lists are normalized and sorted.
func diffMembers(prev, next []string) (added, removed int) {
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch {
		case prev[i] == next[j]:
			i++
			j++
		case prev[i] < next[j]:
			removed++
			i++
		default:
			added++
			j++
		}
	}
	removed += len(prev) - i
	added += len(next) - j
	return added, removed
}
