package disptrace_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/faults"
	"vmopt/internal/harness"
)

func healKey() disptrace.Key {
	return disptrace.Key{Workload: "gray", Lang: "forth", Variant: "plain",
		Technique: "plain", Scale: 5, ScaleDiv: 40, MaxSteps: 100, ISAHash: 42}
}

func healRecorder(k disptrace.Key, calls *int) func() (*disptrace.Trace, error) {
	return func() (*disptrace.Trace, error) {
		*calls++
		w := disptrace.NewWriter(k.Header())
		recordSteps(w, []cpu.Op{{Kind: cpu.OpDispatch, A: 0x40, B: 1, C: 0x80}, {Kind: cpu.OpWork, A: 3}})
		return w.Trace(), nil
	}
}

func quarantineFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, disptrace.QuarantineDir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestCacheQuarantinesCorruptEntry: a corrupt cache file is moved to
// the quarantine sidecar (not deleted), the request heals by
// re-recording, and the healed file is byte-identical to the
// original. The cache restarts before the corrupt read, since the
// recording's own cache keeps serving it from memory.
func TestCacheQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	c := disptrace.NewCache(dir)
	k := healKey()
	calls := 0
	record := healRecorder(k, &calls)

	if _, recorded, err := c.GetOrRecord(k, record); err != nil || !recorded {
		t.Fatalf("first call: err=%v recorded=%v", err, recorded)
	}
	clean, err := os.ReadFile(c.Path(k))
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit on disk — the checksum must catch it.
	bad := append([]byte(nil), clean...)
	bad[len(bad)-1] ^= 0x04
	if err := os.WriteFile(c.Path(k), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	c = disptrace.NewCache(dir)

	if _, recorded, err := c.GetOrRecord(k, record); err != nil || !recorded || calls != 2 {
		t.Fatalf("corrupt entry should re-record: err=%v recorded=%v calls=%d", err, recorded, calls)
	}
	healed, err := os.ReadFile(c.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed, clean) {
		t.Fatal("re-recorded cache file is not byte-identical to the original")
	}
	if got := quarantineFiles(t, dir); len(got) != 1 || got[0] != k.ID()+".vmdt" {
		t.Fatalf("quarantine dir = %v, want exactly the corrupt file", got)
	}
	qb, err := os.ReadFile(filepath.Join(dir, disptrace.QuarantineDir, k.ID()+".vmdt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(qb, bad) {
		t.Fatal("quarantined bytes are not the corrupt original")
	}
	if st := c.Stats(); st.Quarantined != 1 {
		t.Fatalf("Stats().Quarantined = %d, want 1", st.Quarantined)
	}
	if c.Stats().Quarantined != 1 {
		t.Fatalf("Stats().Quarantined = %d, want 1", c.Stats().Quarantined)
	}
}

// TestCacheCorruptEntryMidReplay: the full serve-shaped sequence — a
// trace is recorded and replayed, its cache entry is then corrupted,
// and the next replay of the same key on a restarted cache falls back
// to re-simulation, re-records, and produces byte-identical counters.
func TestCacheCorruptEntryMidReplay(t *testing.T) {
	pair := tracePairs(t)[0]
	s := harness.NewTestSuite()
	dir := t.TempDir()
	c := disptrace.NewCache(dir)
	k := s.TraceKey(pair.w, pair.v)
	record := func() (*disptrace.Trace, error) {
		tr, _, err := s.RecordTrace(pair.w, pair.v, cpu.Celeron800)
		return tr, err
	}

	tr1, _, err := c.GetOrRecord(k, record)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := disptrace.ReplayMachine(tr1, cpu.Pentium4Northwood)
	if err != nil {
		t.Fatal(err)
	}

	// Truncate the entry on disk mid-"session".
	clean, err := os.ReadFile(c.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.Path(k), clean[:len(clean)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	c = disptrace.NewCache(dir)

	tr2, recorded, err := c.GetOrRecord(k, record)
	if err != nil || !recorded {
		t.Fatalf("truncated entry should re-simulate: err=%v recorded=%v", err, recorded)
	}
	r2, err := disptrace.ReplayMachine(tr2, cpu.Pentium4Northwood)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("replay after fallback diverged:\n  before %+v\n  after  %+v", r1, r2)
	}
	healed, err := os.ReadFile(c.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed, clean) {
		t.Fatal("re-recorded trace file is not byte-identical to the original")
	}
	if st := c.Stats(); st.Quarantined != 1 {
		t.Fatalf("Stats().Quarantined = %d, want 1", st.Quarantined)
	}
}

// TestCacheReadErrorFallsBackToRecord: an injected read failure on a
// restarted cache is absorbed by re-simulating instead of failing the
// request, and the valid on-disk entry survives (no quarantine for
// transient I/O).
func TestCacheReadErrorFallsBackToRecord(t *testing.T) {
	dir := t.TempDir()
	c := disptrace.NewCache(dir)
	k := healKey()
	calls := 0
	record := healRecorder(k, &calls)
	if _, _, err := c.GetOrRecord(k, record); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(c.Path(k))
	if err != nil {
		t.Fatal(err)
	}

	spec, err := faults.ParseSpec([]byte(`{"faults":[{"site":"cache.read","mode":"error","nth":1,"limit":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	c = disptrace.NewCache(dir)
	c.Faults = faults.New(spec)

	if _, recorded, err := c.GetOrRecord(k, record); err != nil || !recorded || calls != 2 {
		t.Fatalf("read error should fall back to record: err=%v recorded=%v calls=%d", err, recorded, calls)
	}
	if st := c.Stats(); st.ReadErrors != 1 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want 1 read error, 0 quarantined", st)
	}
	// The fault is spent (limit 1): the next call loads the re-stored
	// entry (from memory), and the file is byte-identical to the
	// original.
	if _, recorded, err := c.GetOrRecord(k, record); err != nil || recorded || calls != 2 {
		t.Fatalf("after fault spent: err=%v recorded=%v calls=%d", err, recorded, calls)
	}
	after, err := os.ReadFile(c.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, clean) {
		t.Fatal("entry changed across read-error fallback")
	}
}

// TestCacheSaveErrorStillServes: an injected write failure loses the
// cache file but never the response: memory keeps serving the
// recording, and a restarted cache re-records and stores cleanly.
func TestCacheSaveErrorStillServes(t *testing.T) {
	dir := t.TempDir()
	c := disptrace.NewCache(dir)
	spec, err := faults.ParseSpec([]byte(`{"faults":[{"site":"cache.write","mode":"error","nth":1,"limit":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	c.Faults = faults.New(spec)
	k := healKey()
	calls := 0
	record := healRecorder(k, &calls)

	tr, recorded, err := c.GetOrRecord(k, record)
	if err != nil || !recorded || tr == nil {
		t.Fatalf("save failure must still serve the trace: err=%v recorded=%v", err, recorded)
	}
	if _, statErr := os.Stat(c.Path(k)); !os.IsNotExist(statErr) {
		t.Fatalf("failed store left a file behind: %v", statErr)
	}
	if st := c.Stats(); st.SaveErrors != 1 {
		t.Fatalf("Stats().SaveErrors = %d, want 1", st.SaveErrors)
	}
	if again, recorded, err := c.GetOrRecord(k, record); err != nil || recorded || again != tr {
		t.Fatalf("memory should serve the unsaved recording: err=%v recorded=%v", err, recorded)
	}
	c = disptrace.NewCache(dir)
	if _, recorded, err := c.GetOrRecord(k, record); err != nil || !recorded || calls != 2 {
		t.Fatalf("re-record after lost store: err=%v recorded=%v calls=%d", err, recorded, calls)
	}
	if _, err := os.Stat(c.Path(k)); err != nil {
		t.Fatalf("clean store missing: %v", err)
	}
}

// TestCacheWriteCorruptionHealsOnNextRead: a bit-flip injected on the
// write path lands on disk, fails its CRC at a restarted cache's first
// load, is quarantined, and the key heals by re-recording
// byte-identically.
func TestCacheWriteCorruptionHealsOnNextRead(t *testing.T) {
	dir := t.TempDir()
	c := disptrace.NewCache(dir)
	spec, err := faults.ParseSpec([]byte(`{"faults":[{"site":"cache.write","mode":"corrupt","nth":1,"limit":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	c.Faults = faults.New(spec)
	k := healKey()
	calls := 0
	record := healRecorder(k, &calls)

	if _, _, err := c.GetOrRecord(k, record); err != nil {
		t.Fatal(err)
	}
	// The stored bytes are damaged; a direct Load must reject them.
	if _, err := disptrace.Load(c.Path(k)); err == nil {
		t.Fatal("injected write corruption did not damage the stored file")
	}
	c = disptrace.NewCache(dir)

	tr, recorded, err := c.GetOrRecord(k, record)
	if err != nil || !recorded || tr == nil || calls != 2 {
		t.Fatalf("corrupt stored entry should heal: err=%v recorded=%v calls=%d", err, recorded, calls)
	}
	if st := c.Stats(); st.Quarantined != 1 {
		t.Fatalf("Stats().Quarantined = %d, want 1", st.Quarantined)
	}
	if _, err := disptrace.Load(c.Path(k)); err != nil {
		t.Fatalf("healed entry does not decode: %v", err)
	}
}

// TestCacheRenamedFileQuarantined: a file that holds another key's
// trace (stale or renamed) fails the content-address check of every
// by-ID read. It reads as absent, is quarantined and never enters
// memory, so a later Load of the key the file is named for records
// that key's own trace instead of serving the other one.
func TestCacheRenamedFileQuarantined(t *testing.T) {
	for _, via := range []string{"load", "meta"} {
		t.Run(via, func(t *testing.T) {
			dir := t.TempDir()
			c := disptrace.NewCache(dir)
			a, b := healKey(), healKey()
			b.Scale++
			calls := 0
			tr, err := healRecorder(a, &calls)()
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Save(c.Path(b)); err != nil {
				t.Fatal(err)
			}

			if via == "load" {
				if got, err := c.LoadID(b.ID()); !errors.Is(err, disptrace.ErrNoTrace) {
					t.Fatalf("LoadID of a renamed file: %v, err=%v; want ErrNoTrace", got, err)
				}
			} else if m, _, err := c.MetaID(b.ID()); !errors.Is(err, disptrace.ErrNoTrace) {
				t.Fatalf("MetaID of a renamed file: %+v, err=%v; want ErrNoTrace", m.Header, err)
			}
			if got := quarantineFiles(t, dir); len(got) != 1 || got[0] != b.ID()+".vmdt" {
				t.Fatalf("quarantine dir = %v, want exactly the renamed file", got)
			}
			if disptrace.InMemory(c, b.ID()) {
				t.Fatal("renamed file's trace entered memory")
			}

			got, recorded, err := c.GetOrRecord(b, healRecorder(b, &calls))
			if err != nil || !recorded || calls != 2 {
				t.Fatalf("load after quarantine: err=%v recorded=%v calls=%d; want a fresh recording", err, recorded, calls)
			}
			if got.Header.Scale != b.Scale {
				t.Fatalf("load of scale %d served a trace of scale %d", b.Scale, got.Header.Scale)
			}
		})
	}
}

// TestCacheScrub: startup verification quarantines undecodable and
// misaddressed files, keeps valid ones, and ignores non-trace files.
func TestCacheScrub(t *testing.T) {
	dir := t.TempDir()
	c := disptrace.NewCache(dir)
	good := healKey()
	calls := 0
	if _, _, err := c.GetOrRecord(good, healRecorder(good, &calls)); err != nil {
		t.Fatal(err)
	}

	// A corrupt entry under a valid content address.
	bad := good
	bad.Scale = 99
	cleanBytes, err := os.ReadFile(c.Path(good))
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), cleanBytes...)
	damaged[len(damaged)-2] ^= 0xFF
	if err := os.WriteFile(c.Path(bad), damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	// A decodable trace stored under the wrong content address.
	wrong := good
	wrong.MaxSteps = 7777
	if err := os.WriteFile(c.Path(wrong), cleanBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	// Junk that is not a trace file at all: ignored, not scrubbed.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 3 || rep.Quarantined != 2 {
		t.Fatalf("scrub report %+v, want checked=3 quarantined=2", rep)
	}
	if got := quarantineFiles(t, dir); len(got) != 2 {
		t.Fatalf("quarantine dir = %v, want 2 files", got)
	}
	if _, err := os.Stat(c.Path(good)); err != nil {
		t.Fatalf("scrub touched the valid entry: %v", err)
	}
	if c.Stats().Quarantined != 2 {
		t.Fatalf("Stats().Quarantined = %d, want 2", c.Stats().Quarantined)
	}

	// A second scrub over the now-clean directory finds nothing.
	rep, err = c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 1 || rep.Quarantined != 0 {
		t.Fatalf("second scrub report %+v, want checked=1 quarantined=0", rep)
	}
}

// TestCacheListSkipsQuarantine: the sidecar directory never shows up
// in the cache listing.
func TestCacheListSkipsQuarantine(t *testing.T) {
	dir := t.TempDir()
	c := disptrace.NewCache(dir)
	k := healKey()
	calls := 0
	if _, _, err := c.GetOrRecord(k, healRecorder(k, &calls)); err != nil {
		t.Fatal(err)
	}
	// Corrupt and reload to force a quarantine.
	if err := os.WriteFile(c.Path(k), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrRecord(k, healRecorder(k, &calls)); err != nil {
		t.Fatal(err)
	}
	entries, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ID != k.ID() {
		t.Fatalf("List() = %+v, want exactly the healed entry", entries)
	}
}
