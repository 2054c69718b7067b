package faults

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := ParseSpec([]byte(src))
	if err != nil {
		t.Fatalf("ParseSpec(%s): %v", src, err)
	}
	return s
}

func TestParseSpecValid(t *testing.T) {
	s := mustParse(t, `{
		"seed": 42,
		"faults": [
			{"site": "cache.read", "mode": "corrupt", "rate": 0.25},
			{"site": "cache.write", "mode": "error", "nth": 3, "limit": 2},
			{"site": "serve.handler", "mode": "latency", "rate": 0.5, "latency": "5ms"},
			{"site": "serve.handler", "mode": "unavailable", "nth": 10},
			{"site": "cache.read", "mode": "truncate", "nth": 7}
		]
	}`)
	if s.Seed != 42 || len(s.Faults) != 5 {
		t.Fatalf("got seed=%d rules=%d", s.Seed, len(s.Faults))
	}
	if got := time.Duration(s.Faults[2].Latency); got != 5*time.Millisecond {
		t.Fatalf("latency = %v, want 5ms", got)
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty rules", `{"faults": []}`, "non-empty"},
		{"no rules key", `{"seed": 1}`, "non-empty"},
		{"missing site", `{"faults":[{"mode":"error","rate":0.1}]}`, "site must be non-empty"},
		{"bad mode", `{"faults":[{"site":"x","mode":"explode","rate":0.1}]}`, "unknown mode"},
		{"no trigger", `{"faults":[{"site":"x","mode":"error"}]}`, "exactly one of rate or nth"},
		{"both triggers", `{"faults":[{"site":"x","mode":"error","rate":0.1,"nth":2}]}`, "exactly one of rate or nth"},
		{"rate too high", `{"faults":[{"site":"x","mode":"error","rate":1.5}]}`, "out of range"},
		{"rate negative", `{"faults":[{"site":"x","mode":"error","rate":-0.1}]}`, "out of range"},
		{"nth negative", `{"faults":[{"site":"x","mode":"error","nth":-2}]}`, "must be >= 1"},
		{"limit negative", `{"faults":[{"site":"x","mode":"error","nth":1,"limit":-1}]}`, "limit"},
		{"latency without duration", `{"faults":[{"site":"x","mode":"latency","nth":1}]}`, "positive latency"},
		{"latency on error mode", `{"faults":[{"site":"x","mode":"error","nth":1,"latency":"5ms"}]}`, "only valid with mode"},
		{"latency not a string", `{"faults":[{"site":"x","mode":"latency","nth":1,"latency":5}]}`, "must be a string"},
		{"unknown field", `{"faults":[{"site":"x","mode":"error","rrate":0.1}]}`, "unknown field"},
		{"unknown top-level", `{"sede": 1, "faults":[{"site":"x","mode":"error","rate":0.1}]}`, "unknown field"},
		{"not json", `{`, "parsing fault spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.src))
			if err == nil {
				t.Fatalf("ParseSpec accepted %s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	var inj *Injector
	if err := inj.Err(SiteCacheRead); err != nil {
		t.Fatalf("nil Err = %v", err)
	}
	b := []byte("payload")
	if got := inj.Corrupt(SiteCacheRead, b); !bytes.Equal(got, b) {
		t.Fatalf("nil Corrupt changed payload")
	}
	inj.Delay(SiteHandler)
	if inj.Reject(SiteHandler) {
		t.Fatal("nil Reject = true")
	}
	if inj.Fired() != nil {
		t.Fatal("nil accounting not empty")
	}
}

func TestNthTrigger(t *testing.T) {
	inj := New(mustParse(t, `{"faults":[{"site":"s","mode":"error","nth":3}]}`))
	var fired int
	for i := 1; i <= 12; i++ {
		err := inj.Err("s")
		if (i%3 == 0) != (err != nil) {
			t.Fatalf("call %d: err=%v", i, err)
		}
		if err != nil {
			fired++
			var fe *Error
			if !errors.As(err, &fe) || fe.Site != "s" {
				t.Fatalf("call %d: error %v is not a faults.Error for site s", i, err)
			}
		}
	}
	if got := inj.Fired(); fired != 4 || len(got) != 1 || got["s/error"] != 4 {
		t.Fatalf("fired=%d Fired()=%v, want 4 s/error fires", fired, got)
	}
}

func TestLimitCapsFires(t *testing.T) {
	inj := New(mustParse(t, `{"faults":[{"site":"s","mode":"unavailable","nth":1,"limit":2}]}`))
	var fired int
	for i := 0; i < 10; i++ {
		if inj.Reject("s") {
			fired++
		}
	}
	if got := inj.Fired()["s/unavailable"]; fired != 2 || got != 2 {
		t.Fatalf("fired=%d Fired=%d, want 2", fired, got)
	}
}

func TestRateDeterministicPerSeed(t *testing.T) {
	const src = `{"seed": 7, "faults":[{"site":"s","mode":"unavailable","rate":0.3}]}`
	run := func() []bool {
		inj := New(mustParse(t, src))
		out := make([]bool, 200)
		for i := range out {
			out[i] = inj.Reject("s")
		}
		return out
	}
	a, b := run(), run()
	var fires int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d differs between identical injectors", i)
		}
		if a[i] {
			fires++
		}
	}
	// 200 draws at rate 0.3: expect ~60; anything in (20, 120) proves the
	// rate is neither 0 nor 1 without flaking on the exact RNG stream.
	if fires <= 20 || fires >= 120 {
		t.Fatalf("rate 0.3 fired %d/200 times", fires)
	}
}

func TestCorruptDamagesCopy(t *testing.T) {
	inj := New(mustParse(t, `{"faults":[{"site":"s","mode":"corrupt","nth":2}]}`))
	orig := bytes.Repeat([]byte{0xAA}, 64)
	if got := inj.Corrupt("s", orig); !bytes.Equal(got, orig) {
		t.Fatal("call 1 (nth=2) should not corrupt")
	}
	got := inj.Corrupt("s", orig)
	if bytes.Equal(got, orig) {
		t.Fatal("call 2 should corrupt")
	}
	if len(got) != len(orig) {
		t.Fatalf("corrupt changed length %d -> %d", len(orig), len(got))
	}
	diff := 0
	for i := range got {
		if got[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt changed %d bytes, want exactly 1", diff)
	}
	if !bytes.Equal(orig, bytes.Repeat([]byte{0xAA}, 64)) {
		t.Fatal("Corrupt mutated the caller's buffer")
	}
}

func TestTruncateHalves(t *testing.T) {
	inj := New(mustParse(t, `{"faults":[{"site":"s","mode":"truncate","nth":1}]}`))
	orig := make([]byte, 100)
	got := inj.Corrupt("s", orig)
	if len(got) != 50 {
		t.Fatalf("truncate len = %d, want 50", len(got))
	}
}

func TestDelaySleeps(t *testing.T) {
	inj := New(mustParse(t, `{"faults":[{"site":"s","mode":"latency","nth":1,"latency":"30ms"}]}`))
	start := time.Now()
	inj.Delay("s")
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("Delay slept only %v", elapsed)
	}
}

func TestSitesAreIndependent(t *testing.T) {
	inj := New(mustParse(t, `{"faults":[
		{"site": "a", "mode": "error", "nth": 1},
		{"site": "b", "mode": "unavailable", "nth": 1}
	]}`))
	if err := inj.Err("b"); err != nil {
		t.Fatalf("error rule for site a fired at site b: %v", err)
	}
	if inj.Reject("a") {
		t.Fatal("unavailable rule for site b fired at site a")
	}
}

func TestConcurrentFire(t *testing.T) {
	inj := New(mustParse(t, `{"seed": 3, "faults":[
		{"site": "s", "mode": "error", "nth": 5},
		{"site": "s", "mode": "unavailable", "rate": 0.2, "limit": 10}
	]}`))
	done := make(chan int, 8)
	for g := 0; g < 8; g++ {
		go func() {
			n := 0
			for i := 0; i < 1000; i++ {
				if inj.Err("s") != nil {
					n++
				}
				inj.Reject("s")
				inj.Corrupt("s", []byte{1, 2, 3})
			}
			done <- n
		}()
	}
	errs := 0
	for g := 0; g < 8; g++ {
		errs += <-done
	}
	if errs != 8000/5 {
		t.Fatalf("nth=5 over 8000 calls fired %d, want %d", errs, 8000/5)
	}
	fired := inj.Fired()
	if fired["s/unavailable"] != 10 {
		t.Fatalf("limit 10 rule fired %d", fired["s/unavailable"])
	}
	if fired["s/error"] != uint64(errs) {
		t.Fatalf("Fired[s/error]=%d, want %d", fired["s/error"], errs)
	}
}
