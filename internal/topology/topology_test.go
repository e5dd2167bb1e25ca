package topology

import "testing"

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Sockets = 0
	if bad.Validate() == nil {
		t.Fatal("zero sockets must fail")
	}
	bad = DefaultConfig()
	bad.InterconnectBW = bad.LocalBW * 2
	if bad.Validate() == nil {
		t.Fatal("interconnect faster than DRAM must fail")
	}
}

func TestPlacement(t *testing.T) {
	p := Placement{PerSocket: []int{3, 0, 5}}
	if p.Total() != 8 {
		t.Fatalf("Total = %d", p.Total())
	}
	if s := p.Sockets(); len(s) != 2 || s[0] != 0 || s[1] != 2 {
		t.Fatalf("Sockets = %v", s)
	}
	if p.On(1) != 0 || p.On(2) != 5 || p.On(9) != 0 {
		t.Fatal("On values wrong")
	}
	c := p.Clone()
	c.PerSocket[0] = 99
	if p.PerSocket[0] != 3 {
		t.Fatal("Clone aliases storage")
	}
}

func TestPlacementDiffAndEqual(t *testing.T) {
	a := Placement{PerSocket: []int{4, 14}}
	b := Placement{PerSocket: []int{10, 8}}
	d := a.Diff(b)
	if len(d) != 2 || d[0] != 6 || d[1] != -6 {
		t.Fatalf("diff = %v, want [6 -6]", d)
	}
	if got := b.Diff(a); got[0] != -6 || got[1] != 6 {
		t.Fatalf("reverse diff = %v", got)
	}
	// Mismatched lengths: missing sockets count as zero.
	short := Placement{PerSocket: []int{3}}
	d = short.Diff(a)
	if len(d) != 2 || d[0] != 1 || d[1] != 14 {
		t.Fatalf("short diff = %v, want [1 14]", d)
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone must be equal")
	}
	if a.Equal(b) {
		t.Fatal("distinct placements reported equal")
	}
	if !(Placement{PerSocket: []int{2}}).Equal(Placement{PerSocket: []int{2, 0, 0}}) {
		t.Fatal("trailing zero sockets must compare equal")
	}
	// A diff of all zeros is exactly Equal.
	for _, v := range a.Diff(a) {
		if v != 0 {
			t.Fatalf("self diff nonzero: %v", a.Diff(a))
		}
	}
}
