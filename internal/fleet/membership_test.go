package fleet

import (
	"reflect"
	"testing"
)

func TestMembershipJoinLeaveEpochs(t *testing.T) {
	m := NewMembership([]string{"http://b:2/", " http://a:1 ", "http://a:1"})
	if got := m.Members(); !reflect.DeepEqual(got, []string{"http://a:1", "http://b:2"}) {
		t.Fatalf("initial members = %v", got)
	}
	if m.Epoch() != 0 {
		t.Fatalf("initial epoch = %d, want 0", m.Epoch())
	}

	if !m.Join("http://c:3") {
		t.Fatal("Join of a new member reported no change")
	}
	if m.Epoch() != 1 || !m.Contains("http://c:3") {
		t.Fatalf("after join: epoch %d members %v", m.Epoch(), m.Members())
	}
	// Re-announcing is idempotent: no change, no epoch churn.
	if m.Join("http://c:3/") {
		t.Fatal("re-join of a member reported a change")
	}
	if m.Epoch() != 1 {
		t.Fatalf("idempotent join moved the epoch to %d", m.Epoch())
	}

	if !m.Leave("http://a:1") {
		t.Fatal("Leave of a member reported no change")
	}
	if m.Epoch() != 2 || m.Contains("http://a:1") {
		t.Fatalf("after leave: epoch %d members %v", m.Epoch(), m.Members())
	}
	if m.Leave("http://a:1") {
		t.Fatal("leave of a non-member reported a change")
	}
	if m.Joins() != 1 || m.Leaves() != 1 {
		t.Errorf("Joins/Leaves = %d/%d, want 1/1", m.Joins(), m.Leaves())
	}
}

func TestMembershipApplyEpochRules(t *testing.T) {
	m := NewMembership([]string{"http://a:1", "http://b:2"})
	m.Join("http://c:3") // epoch 1

	// Older epoch: ignored.
	if m.Apply([]string{"http://z:9"}, 0) {
		t.Fatal("older snapshot applied")
	}
	// Equal epoch, identical list: no-op.
	if m.Apply([]string{"http://a:1", "http://b:2", "http://c:3"}, 1) {
		t.Fatal("identical snapshot reported a change")
	}
	if m.Epoch() != 1 {
		t.Fatalf("no-op applies moved the epoch to %d", m.Epoch())
	}

	// Newer epoch: adopted wholesale, even when it shrinks the list.
	if !m.Apply([]string{"http://a:1"}, 5) {
		t.Fatal("newer snapshot not applied")
	}
	if m.Epoch() != 5 || !reflect.DeepEqual(m.Members(), []string{"http://a:1"}) {
		t.Fatalf("after newer apply: epoch %d members %v", m.Epoch(), m.Members())
	}

	// Equal epoch, different list: union under epoch+1 — both racing sides
	// compute the same merge, so one more exchange converges them.
	a := NewMembership([]string{"http://a:1"})
	b := NewMembership([]string{"http://a:1"})
	a.Join("http://x:1") // epoch 1 on both sides, different lists
	b.Join("http://y:1")
	av, ae := a.Snapshot()
	bv, be := b.Snapshot()
	if !a.Apply(bv, be) || !b.Apply(av, ae) {
		t.Fatal("conflicting snapshots not applied")
	}
	am, ape := a.Snapshot()
	bm, bpe := b.Snapshot()
	if !reflect.DeepEqual(am, bm) || ape != bpe {
		t.Fatalf("conflict resolution diverged: %v@%d vs %v@%d", am, ape, bm, bpe)
	}
	if want := []string{"http://a:1", "http://x:1", "http://y:1"}; !reflect.DeepEqual(am, want) {
		t.Fatalf("union = %v, want %v", am, want)
	}
	if ape != 2 {
		t.Fatalf("union epoch = %d, want 2", ape)
	}
}

// TestMembershipApplyRefusesEmpty: an empty snapshot — literally, or once
// normalized — must not wipe the view at any epoch, or one malformed gossip
// message would empty the fleet and spread the wipe.
func TestMembershipApplyRefusesEmpty(t *testing.T) {
	m := NewMembership([]string{"http://a:1", "http://b:2"})
	changes := 0
	m.OnChange(func([]string, uint64) { changes++ })
	for _, tc := range []struct {
		members []string
		epoch   uint64
	}{
		{nil, 999},
		{[]string{}, 999},
		{[]string{" ", "/"}, 1000},
	} {
		if m.Apply(tc.members, tc.epoch) {
			t.Errorf("Apply(%q, %d) reported a change", tc.members, tc.epoch)
		}
	}
	if got := m.Members(); !reflect.DeepEqual(got, []string{"http://a:1", "http://b:2"}) || m.Epoch() != 0 {
		t.Errorf("view after empty snapshots = %v@%d, want the initial view at epoch 0", got, m.Epoch())
	}
	if changes != 0 || m.Leaves() != 0 {
		t.Errorf("empty snapshots fired %d OnChange callbacks and %d leaves", changes, m.Leaves())
	}
}

func TestMembershipOnChange(t *testing.T) {
	m := NewMembership([]string{"http://a:1"})
	type change struct {
		members []string
		epoch   uint64
	}
	var got []change
	m.OnChange(func(members []string, epoch uint64) {
		got = append(got, change{members, epoch})
	})

	m.Join("http://b:2")
	m.Leave("http://a:1")
	m.Apply([]string{"http://z:9"}, 10)
	m.Apply([]string{"http://z:9"}, 3) // older: no callback

	want := []change{
		{[]string{"http://a:1", "http://b:2"}, 1},
		{[]string{"http://b:2"}, 2},
		{[]string{"http://z:9"}, 10},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("OnChange sequence = %+v, want %+v", got, want)
	}
	// Apply counted one add and one remove against the previous view.
	if m.Joins() != 2 || m.Leaves() != 2 {
		t.Errorf("Joins/Leaves = %d/%d, want 2/2", m.Joins(), m.Leaves())
	}
}
