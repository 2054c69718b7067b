package disptrace_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmopt/internal/disptrace"
)

// fillTrace records one trace into its own cache and returns the key
// plus the raw on-disk bytes — what a peer would serve for a fill.
func fillTrace(t *testing.T, k disptrace.Key) []byte {
	t.Helper()
	owner := disptrace.NewCache(t.TempDir())
	calls := 0
	if _, recorded, err := owner.GetOrRecord(k, healRecorder(k, &calls)); err != nil || !recorded {
		t.Fatalf("recording reference trace: err=%v recorded=%v", err, recorded)
	}
	b, err := os.ReadFile(owner.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFillHit: a local miss satisfied by the Fill hook avoids the
// recorder entirely, counts as a peer fill, and persists locally so
// the next lookup is a plain disk hit.
func TestFillHit(t *testing.T) {
	k := healKey()
	raw := fillTrace(t, k)
	c := disptrace.NewCache(t.TempDir())
	fills := 0
	c.Fill = func(id string, fk *disptrace.Key) ([]byte, error) {
		fills++
		if id != k.ID() || fk == nil || *fk != k {
			return nil, fmt.Errorf("asked for unexpected trace %s, key %+v", id, fk)
		}
		return raw, nil
	}
	calls := 0
	tr, recorded, err := c.GetOrRecord(k, healRecorder(k, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if recorded || calls != 0 {
		t.Fatalf("peer-filled lookup recorded (recorded=%v, recorder calls=%d)", recorded, calls)
	}
	if tr == nil || fills != 1 {
		t.Fatalf("trace=%v fills=%d", tr, fills)
	}
	st := c.Stats()
	if st.PeerFills != 1 || st.PeerFillMisses != 0 || st.PeerFillErrors != 0 {
		t.Fatalf("stats after fill: %+v", st)
	}

	// The filled bytes were persisted verbatim: disable the hook, a
	// fresh lookup loads from local disk.
	onDisk, err := os.ReadFile(c.Path(k))
	if err != nil {
		t.Fatalf("filled trace not persisted: %v", err)
	}
	if !bytes.Equal(onDisk, raw) {
		t.Fatal("persisted fill differs from peer bytes")
	}
	c.Fill = nil
	if _, recorded, err := c.GetOrRecord(k, healRecorder(k, &calls)); err != nil || recorded || calls != 0 {
		t.Fatalf("post-fill lookup: err=%v recorded=%v calls=%d", err, recorded, calls)
	}
}

// TestFillFallbacks: hook misses, hook errors and garbage payloads
// all fall back to recording — a broken peer never breaks a request,
// it only costs the simulation the cluster tried to avoid.
func TestFillFallbacks(t *testing.T) {
	k := healKey()
	otherKey := healKey()
	otherKey.Scale = 7 // different content address
	otherRaw := fillTrace(t, otherKey)

	for _, tc := range []struct {
		name   string
		fill   func(string, *disptrace.Key) ([]byte, error)
		misses uint64
		errs   uint64
	}{
		{"miss", func(string, *disptrace.Key) ([]byte, error) { return nil, nil }, 1, 0},
		{"error", func(string, *disptrace.Key) ([]byte, error) { return nil, errors.New("peer down") }, 0, 1},
		{"garbage", func(string, *disptrace.Key) ([]byte, error) { return []byte("not a trace"), nil }, 0, 1},
		{"wrong-trace", func(string, *disptrace.Key) ([]byte, error) { return otherRaw, nil }, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := disptrace.NewCache(t.TempDir())
			c.Fill = tc.fill
			calls := 0
			tr, recorded, err := c.GetOrRecord(k, healRecorder(k, &calls))
			if err != nil || tr == nil {
				t.Fatalf("err=%v trace=%v", err, tr)
			}
			if !recorded || calls != 1 {
				t.Fatalf("fallback did not record: recorded=%v calls=%d", recorded, calls)
			}
			st := c.Stats()
			if st.PeerFills != 0 || st.PeerFillMisses != tc.misses || st.PeerFillErrors != tc.errs {
				t.Fatalf("stats: %+v, want misses=%d errors=%d", st, tc.misses, tc.errs)
			}
			// Whatever the hook returned, the file on disk is the
			// correctly recorded trace — never the rejected payload.
			if tc.name == "wrong-trace" {
				onDisk, err := os.ReadFile(c.Path(k))
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(onDisk, otherRaw) {
					t.Fatal("mismatched fill payload persisted under the wrong key")
				}
			}
		})
	}
}

// TestFillID: the by-content-address path (diff traces) fills from
// the Fill hook with no key, verifies the content address, and rejects
// payloads whose bytes decode to a different trace.
func TestFillID(t *testing.T) {
	k := healKey()
	raw := fillTrace(t, k)
	id := k.ID()

	c := disptrace.NewCache(t.TempDir())
	c.Fill = func(gotID string, fk *disptrace.Key) ([]byte, error) {
		if gotID != id || fk != nil {
			return nil, fmt.Errorf("asked for unexpected id %s, key %+v", gotID, fk)
		}
		return raw, nil
	}
	tr, err := c.LoadID(id)
	if err != nil {
		t.Fatalf("LoadID with fill: %v", err)
	}
	if tr == nil {
		t.Fatal("LoadID returned nil trace")
	}
	if st := c.Stats(); st.PeerFills != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Wrong bytes for the requested address are rejected, and the
	// load reports the trace as absent rather than serving them.
	other := healKey()
	other.Scale = 9
	bad := disptrace.NewCache(t.TempDir())
	bad.Fill = func(string, *disptrace.Key) ([]byte, error) { return raw, nil }
	if _, err := bad.LoadID(other.ID()); !errors.Is(err, disptrace.ErrNoTrace) {
		t.Fatalf("mismatched fill payload accepted: err=%v", err)
	}
	if st := bad.Stats(); st.PeerFillErrors != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestOneFlightPerTrace: reads of one cold trace by ID (LoadID) and
// by key (GetOrRecord) climb one ladder under one flight, so a herd of
// both kinds calls the slow fill hook once — one verify, one file
// write — and every other read joins that flight.
func TestOneFlightPerTrace(t *testing.T) {
	k := healKey()
	raw := fillTrace(t, k)
	c := disptrace.NewCache(t.TempDir())
	const herd = 8
	var arrived, done sync.WaitGroup
	arrived.Add(herd)
	var fills atomic.Int32
	c.Fill = func(string, *disptrace.Key) ([]byte, error) {
		fills.Add(1)
		arrived.Wait()
		time.Sleep(100 * time.Millisecond) // every reader reaches the flight
		return raw, nil
	}
	traces := make([]*disptrace.Trace, herd)
	errs := make([]error, herd)
	for i := range herd {
		done.Add(1)
		go func() {
			defer done.Done()
			arrived.Done()
			if i%2 == 0 {
				traces[i], errs[i] = c.LoadID(k.ID())
				return
			}
			traces[i], _, errs[i] = c.GetOrRecord(k, func() (*disptrace.Trace, error) {
				return nil, errors.New("recorder ran on a filled trace")
			})
		}()
	}
	done.Wait()
	for i := range herd {
		if errs[i] != nil || traces[i] != traces[0] {
			t.Fatalf("read %d: %p, %v; want the one filled trace %p", i, traces[i], errs[i], traces[0])
		}
	}
	st := c.Stats()
	if n := fills.Load(); n != 1 || st.PeerFills != 1 || st.Joined != herd-1 || st.Records != 0 {
		t.Fatalf("fill hook called %d times, stats %+v; want 1 call, 1 peer fill, %d joined", n, st, herd-1)
	}
}

// TestKeyedReadLeadsAfterByIDMiss: a GetOrRecord that joins a by-ID
// flight which found nothing does not take that miss as its answer: it
// leads a fresh flight, asks the fill hook with its key and records.
func TestKeyedReadLeadsAfterByIDMiss(t *testing.T) {
	k := healKey()
	c := disptrace.NewCache(t.TempDir())
	keyed := make(chan struct{})
	var byID, byKey atomic.Int32
	c.Fill = func(_ string, fk *disptrace.Key) ([]byte, error) {
		if fk != nil {
			byKey.Add(1)
			return nil, nil
		}
		byID.Add(1)
		<-keyed
		time.Sleep(100 * time.Millisecond) // the keyed read joins this flight
		return nil, nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var idErr error
	go func() {
		defer wg.Done()
		_, idErr = c.LoadID(k.ID())
	}()
	for byID.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(keyed)
	calls := 0
	tr, recorded, err := c.GetOrRecord(k, healRecorder(k, &calls))
	wg.Wait()
	if !errors.Is(idErr, disptrace.ErrNoTrace) {
		t.Fatalf("LoadID of a trace nobody has: err=%v, want ErrNoTrace", idErr)
	}
	if err != nil || tr == nil || !recorded || calls != 1 {
		t.Fatalf("GetOrRecord after a by-ID miss: %v, recorded=%v, err=%v, recorder calls %d", tr, recorded, err, calls)
	}
	if st := c.Stats(); st.Joined != 1 || st.Records != 1 || byID.Load() != 1 || byKey.Load() != 1 {
		t.Fatalf("stats %+v, fills by ID %d, by key %d; want 1 joined, 1 record, one fill each",
			st, byID.Load(), byKey.Load())
	}
}

// TestMetaID: the by-ID metadata read returns the file's header and
// index with its size, without consulting or filling the cache's
// memory of decoded traces; it fills through the ladder on a local miss, and quarantines a file
// that fails its checksum or is of another format version.
func TestMetaID(t *testing.T) {
	k := healKey()
	id := k.ID()
	c := disptrace.NewCache(t.TempDir())
	calls := 0
	if _, _, err := c.GetOrRecord(k, healRecorder(k, &calls)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadID(id); err != nil || !disptrace.InMemory(c, id) {
		t.Fatalf("load did not keep the trace in memory: err=%v", err)
	}
	want, err := disptrace.ReadMeta(c.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(c.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	for range 3 {
		m, size, err := c.MetaID(id)
		if err != nil || m != want || size != int64(len(raw)) {
			t.Fatalf("MetaID = %+v, %d, %v; want %+v, %d", m, size, err, want, len(raw))
		}
	}
	if after := c.Stats(); after != before {
		t.Errorf("metadata reads touched the cache's loads or memory: %+v -> %+v", before, after)
	}
	if _, _, err := c.MetaID("not-an-id"); !errors.Is(err, disptrace.ErrNoTrace) {
		t.Errorf("invalid ID: err=%v", err)
	}

	filled := disptrace.NewCache(t.TempDir())
	filled.Fill = func(string, *disptrace.Key) ([]byte, error) { return raw, nil }
	if m, size, err := filled.MetaID(id); err != nil || m != want || size != int64(len(raw)) {
		t.Fatalf("MetaID with fill = %+v, %d, %v", m, size, err)
	}
	if st := filled.Stats(); st.PeerFills != 1 {
		t.Fatalf("stats after fill: %+v", st)
	}
	if _, err := os.Stat(filled.Path(k)); err != nil {
		t.Fatalf("filled trace not persisted: %v", err)
	}

	for name, mut := range map[string]func([]byte){
		// The last byte lies in the ID stream, which the metadata
		// read does not parse: only the checksum catches it.
		"checksum":   func(b []byte) { b[len(b)-1] ^= 0x40 },
		"version v3": func(b []byte) { b[4] = 3 },
	} {
		bad := disptrace.NewCache(t.TempDir())
		if _, _, err := bad.GetOrRecord(k, healRecorder(k, &calls)); err != nil {
			t.Fatal(err)
		}
		b := bytes.Clone(raw)
		mut(b)
		if err := os.WriteFile(bad.Path(k), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := bad.MetaID(id); !errors.Is(err, disptrace.ErrNoTrace) {
			t.Errorf("%s: MetaID err=%v, want ErrNoTrace", name, err)
		}
		if got := bad.Stats().Quarantined; got != 1 {
			t.Errorf("%s: %d files quarantined, want 1", name, got)
		}
		if _, err := os.Stat(bad.Path(k)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: bad file still in place (stat err=%v)", name, err)
		}
	}
}

// TestReadRaw: the peer-serving read returns the exact file bytes and
// counts the serve; absences and invalid IDs are ErrNoTrace without
// touching the fill hook (no fill recursion between peers).
func TestReadRaw(t *testing.T) {
	k := healKey()
	c := disptrace.NewCache(t.TempDir())
	calls := 0
	if _, _, err := c.GetOrRecord(k, healRecorder(k, &calls)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(c.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadRaw(k.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ReadRaw bytes differ from the cache file")
	}
	if st := c.Stats(); st.PeerServes != 1 {
		t.Fatalf("stats: %+v", st)
	}

	fillCalled := false
	c.Fill = func(string, *disptrace.Key) ([]byte, error) { fillCalled = true; return nil, nil }
	other := healKey()
	other.Scale = 11
	if _, err := c.ReadRaw(other.ID()); !errors.Is(err, disptrace.ErrNoTrace) {
		t.Fatalf("absent trace: err=%v, want ErrNoTrace", err)
	}
	if _, err := c.ReadRaw("../escape"); !errors.Is(err, disptrace.ErrNoTrace) {
		t.Fatalf("invalid id: err=%v, want ErrNoTrace", err)
	}
	if fillCalled {
		t.Fatal("ReadRaw consulted the fill hook; peers must not recurse")
	}
}
