package main

import "testing"

// fakeClock returns a tracer whose clock reads the values clock points at.
func fakeTracer(clock *int64) *tracer {
	return &tracer{now: func() int64 { return *clock }, limit: maxKeptSpans}
}

func TestSelfTimeNestedAndTouching(t *testing.T) {
	var clock int64
	tr := fakeTracer(&clock)
	at := func(ts int64) { clock = ts }

	// root [0,100]: child A [10,40] holding grandchild [20,30], then child B
	// [40,70] starting the instant A ends.
	at(0)
	tr.begin(spLoop)
	at(10)
	tr.begin(spMMUWalk)
	at(20)
	tr.begin(spWalkMEHPT)
	at(30)
	tr.end()
	at(40)
	tr.end()
	tr.begin(spFault)
	at(70)
	tr.end()
	at(100)
	tr.end()

	for _, tc := range []struct {
		s           span
		self, total int64
	}{
		{spLoop, 40, 100},     // minus A and B, not minus the grandchild again
		{spMMUWalk, 20, 30},   // minus the grandchild
		{spWalkMEHPT, 10, 10}, // a leaf
		{spFault, 30, 30},     // touching its sibling costs nothing twice
		{spCacheAccess, 0, 0}, // never called
	} {
		st := tr.stats[tc.s]
		if st.self != tc.self || st.total != tc.total {
			t.Errorf("%v: self %d total %d, want %d %d", tc.s, st.self, st.total, tc.self, tc.total)
		}
	}
	if got := tr.meanSelf(spCacheAccess); got != 0 {
		t.Errorf("meanSelf of an uncalled span = %v, want 0", got)
	}
}

func TestSpansKeepParentsAndSampling(t *testing.T) {
	var clock int64
	tr := fakeTracer(&clock)
	tr.setRun(7)
	tr.begin(spLoop) // id 1
	tr.sample(true)
	tr.begin(spMMUWalk) // id 2, kept
	tr.begin(spWalkECPT)
	tr.end()
	tr.end()
	tr.sample(false)
	tr.begin(spCacheAccess) // not kept, but aggregated
	tr.end()
	tr.end()

	want := map[span]uint64{spWalkECPT: 2, spMMUWalk: 1, spLoop: 0}
	if len(tr.spans) != len(want) {
		t.Fatalf("kept %d spans, want %d: %+v", len(tr.spans), len(want), tr.spans)
	}
	for _, s := range tr.spans {
		if p, ok := want[s.Name]; !ok || s.Parent != p || s.Run != 7 {
			t.Errorf("span %+v: want parent %d in run 7", s, p)
		}
	}
	if tr.stats[spCacheAccess].calls != 1 {
		t.Errorf("unsampled call not aggregated")
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	tr.setRun(1)
	tr.sample(true)
	tr.begin(spLoop)
	tr.end()
}
