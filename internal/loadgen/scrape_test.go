package loadgen

import "testing"

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming("parse;dur=0.011, record;dur=1.879, record;dur=0.5, encode;dur=0.008, junk, alsojunk;desc=x")
	if len(got) != 3 {
		t.Fatalf("parsed %d stages, want 3: %v", len(got), got)
	}
	if got["record"] != 1.879+0.5 {
		t.Errorf("record = %v, want summed 2.379", got["record"])
	}
	if got["parse"] != 0.011 || got["encode"] != 0.008 {
		t.Errorf("stages = %v", got)
	}
}
