package disptrace

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmopt/internal/faults"
	"vmopt/internal/runner"
)

// Key identifies a dispatch stream: everything that determines the
// event sequence. The machine model is deliberately absent — one
// trace serves every machine (see cpu.Sink).
//
// Variant is the harness variant label; labels are unique per
// configuration within an experiment grid (sweep variants encode
// their budgets in the label), so the label together with scale,
// divisor, step bound and ISA fingerprint pins the stream down.
type Key struct {
	Workload  string
	Lang      string
	Variant   string
	Technique string
	Scale     uint64
	ScaleDiv  uint64
	MaxSteps  uint64
	ISAHash   uint64
}

// ID returns the content address of the key: a sha256 over the format
// version and every field, rendered as hex. It names the cache file.
func (k Key) ID() string {
	h := sha256.Sum256(fmt.Appendf(nil, "vmdt%d|%s|%s|%s|%s|%d|%d|%d|%x",
		Version, k.Workload, k.Lang, k.Variant, k.Technique,
		k.Scale, k.ScaleDiv, k.MaxSteps, k.ISAHash))
	return hex.EncodeToString(h[:])
}

// Header returns the trace header a recording for this key should
// carry (stream totals zero; the writer fills them).
func (k Key) Header() Header {
	return Header{
		Workload: k.Workload, Lang: k.Lang,
		Variant: k.Variant, Technique: k.Technique,
		Scale: k.Scale, ScaleDiv: k.ScaleDiv,
		MaxSteps: k.MaxSteps, ISAHash: k.ISAHash,
	}
}

// keyOf is the inverse of Key.Header: the key a trace header was
// recorded under. A loaded trace matches its key when keyOf gives the
// key back (belt and braces over the content address: a stale or
// hand-renamed file is rejected instead of silently replayed).
func keyOf(h Header) Key {
	return Key{
		Workload: h.Workload, Lang: h.Lang,
		Variant: h.Variant, Technique: h.Technique,
		Scale: h.Scale, ScaleDiv: h.ScaleDiv,
		MaxSteps: h.MaxSteps, ISAHash: h.ISAHash,
	}
}

// memoryBudget bounds the resident bytes (Arena.Bytes) of the decoded
// traces a Cache keeps in memory. Stored as successor-run tokens, all
// 126 paper-grid traces at scalediv 10 weigh 11.8 MB together
// (TestPaperGridFitsMemoryBudget), so 16 MiB holds the whole grid: a
// pass over it decodes each trace once, and the tier holds only what
// the pass has loaded instead of staying full.
const memoryBudget = 16 << 20

// Cache is a content-addressed on-disk trace store: traces live under
// Dir as <key-id>.vmdt. Distinct processes sharing a directory stay
// safe through atomic writes, at worst recording the same trace twice.
//
// Every read of a trace, by key (GetOrRecord) or by ID (LoadID, a
// MetaID miss), climbs one ladder — memory → disk → Fill → record —
// under one in-process flight keyed by trace ID, so concurrent reads
// of one trace cost one disk read, one fill or one recording. Decoded
// traces stay in memory in one least-recently-used list under a byte
// budget (memoryBudget). Build a Cache with NewCache.
type Cache struct {
	// Dir is the cache directory (created on first store).
	Dir string

	// Faults optionally injects I/O failures at the cache.read and
	// cache.write sites (delays, errors, payload corruption). nil
	// injects nothing; the self-healing paths below exist so every
	// injected fault is absorbed without failing a request.
	Faults *faults.Injector

	// Fill, when set, is consulted on a local miss before the trace is
	// recorded by simulation: it returns the encoded bytes of trace id
	// from elsewhere (in a cluster, a peer), nil bytes for a clean
	// miss, or an error. k is the trace's key when the caller knows it
	// and nil when only the ID is known (the diff and trace-info
	// paths). Filled bytes are verified against id before use and
	// stored locally, so a cold or re-hashed instance warms from the
	// fleet instead of redoing work. Fill runs inside the flight, so a
	// herd on one trace asks at most once. Set it before the cache
	// serves traffic.
	Fill func(id string, k *Key) ([]byte, error)

	// mem holds decoded traces by ID, each weighed by its
	// Arena.Bytes and each verified to hash back to its ID. Every
	// clean disk decode, peer fill and recording goes in, and later
	// loads are served from it without a read or a decode; quarantine
	// drops an entry together with its file.
	mem *runner.LRU[string, *Trace]

	// flight coalesces every read of one trace ID (see climb).
	flight runner.Flight[string, cacheOutcome]

	// metas memoizes per-file index metadata for List (id ->
	// cachedMeta), revalidated by size+mtime so a re-recorded file is
	// re-read. Trace files are content-addressed and essentially
	// immutable, so a listing after the first costs ReadDir+stat
	// again, not a header parse per file. Entries for deleted files
	// are dropped during List.
	metas sync.Map

	loads, records, joined, memHits     atomic.Uint64
	quarantined, readErrors, saveErrors atomic.Uint64
	peerFills, peerFillMisses           atomic.Uint64
	peerFillErrors, peerServes          atomic.Uint64
}

// cachedMeta is one memoized ReadMeta result with its validators.
type cachedMeta struct {
	size  int64
	mtime time.Time
	meta  Meta
	ok    bool // false: the file was unreadable; don't retry every listing
}

// CacheStats counts cache activity since process start; the serving
// subsystem exports each field as a vmserved_trace_*, vmserved_peer_*
// or vmserved_cache_quarantined_total series on /metrics. Loads counts
// flights that found the trace locally, in memory or on disk, whether
// asked by key or by ID; Records counts fresh recordings; Joined
// counts reads, by key or by ID, that coalesced onto an in-progress
// flight instead of climbing the ladder themselves.
type CacheStats struct {
	Loads   uint64
	Records uint64
	Joined  uint64

	// Quarantined counts corrupt or mismatched files moved to the
	// quarantine sidecar dir instead of served; ReadErrors counts
	// reads that failed at the I/O layer and fell back to a fill (and,
	// by key, to re-simulation); SaveErrors counts recordings and fills
	// whose cache store failed but whose trace was still served.
	Quarantined uint64
	ReadErrors  uint64
	SaveErrors  uint64

	// PeerFills counts misses satisfied by the Fill hook (in a
	// cluster, traces fetched from the owning peer instead of
	// re-simulated); PeerFillMisses counts hook calls that came back
	// empty and fell through to simulation; PeerFillErrors counts hook
	// failures plus filled payloads rejected by verification.
	// PeerServes counts raw trace files this instance handed to peers
	// through ReadRaw.
	PeerFills      uint64
	PeerFillMisses uint64
	PeerFillErrors uint64
	PeerServes     uint64

	// MemoryHits counts loads served from memory, with no disk read
	// and no decode; MemoryEvictions counts decoded traces the byte
	// budget displaced (quarantine removals are not counted);
	// MemoryBytes is the resident size of the traces held now.
	MemoryHits      uint64
	MemoryEvictions uint64
	MemoryBytes     int64
}

// Stats snapshots the cache's activity counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Loads:          c.loads.Load(),
		Records:        c.records.Load(),
		Joined:         c.joined.Load(),
		Quarantined:    c.quarantined.Load(),
		ReadErrors:     c.readErrors.Load(),
		SaveErrors:     c.saveErrors.Load(),
		PeerFills:      c.peerFills.Load(),
		PeerFillMisses: c.peerFillMisses.Load(),
		PeerFillErrors: c.peerFillErrors.Load(),
		PeerServes:     c.peerServes.Load(),

		MemoryHits:      c.memHits.Load(),
		MemoryEvictions: c.mem.Evictions(),
		MemoryBytes:     c.mem.Weight(),
	}
}

// cacheOutcome is one ladder climb shared across a flight. idMiss
// reports a by-ID climb that found nothing: final for by-ID readers,
// but no answer for a keyed caller that can still record.
type cacheOutcome struct {
	t        *Trace
	recorded bool
	idMiss   bool
}

// NewCache returns a cache rooted at dir.
func NewCache(dir string) *Cache {
	return &Cache{Dir: dir, mem: newMemory(memoryBudget)}
}

// newMemory returns the in-memory list of decoded traces, bounded by
// budget bytes alone: every entry weighs at least its arena's slice
// headers, so the budget also bounds the entry count.
func newMemory(budget int64) *runner.LRU[string, *Trace] {
	return runner.NewWeightedLRU[string](math.MaxInt, budget,
		func(t *Trace) int64 { return t.arena.Bytes() })
}

// remember keeps a verified trace in memory. A trace heavier than the
// whole budget is served but not kept: holding it would evict
// everything else and still break the bound.
func (c *Cache) remember(id string, t *Trace) {
	if t.arena.Bytes() <= c.mem.Budget() {
		c.mem.Add(id, t)
	}
}

// Path returns the file a key's trace is stored at.
func (c *Cache) Path(k Key) string { return c.file(k.ID()) }

// file returns the file trace id is stored at.
func (c *Cache) file(id string) string { return filepath.Join(c.Dir, id+".vmdt") }

// verify decodes stored bytes and checks that their header hashes back
// to id, the content address they were found under: the one check
// every disk read, fill and scrub makes before a trace is served or
// kept. It returns nil for bytes that fail to decode or belong to
// another key (stale, renamed or a confused peer's).
func verify(b []byte, id string) *Trace {
	t, err := Decode(b)
	if err != nil || keyOf(t.Header).ID() != id {
		return nil
	}
	return t
}

// QuarantineDir is the sidecar directory under Dir that corrupt or
// mismatched cache files are moved into (never deleted): the bytes
// stay available for a postmortem, the cache heals by re-recording,
// and the move shows up in CacheStats.Quarantined.
const QuarantineDir = "quarantine"

// quarantine moves trace id's bad cache file into the sidecar dir. If
// the move itself fails (cross-device, permissions) the file is removed
// instead — a poisoned entry that cannot be set aside must still not
// wedge every future run on its key.
func (c *Cache) quarantine(id string) {
	// Memory must never outlive its file: a quarantined entry's
	// decoded trace goes with it, so the healed replacement is
	// decoded from clean bytes.
	c.mem.Remove(id)
	path := c.file(id)
	qdir := filepath.Join(c.Dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(path, filepath.Join(qdir, filepath.Base(path))) == nil {
			c.quarantined.Add(1)
			return
		}
	}
	if os.Remove(path) == nil {
		c.quarantined.Add(1)
	}
}

// readFile reads trace id's cache file through the fault-injection
// sites: injected latency first, then an injected read error, then
// payload corruption of the bytes actually read.
func (c *Cache) readFile(id string) ([]byte, error) {
	c.Faults.Delay(faults.SiteCacheRead)
	if err := c.Faults.Err(faults.SiteCacheRead); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(c.file(id))
	if err != nil {
		return nil, err
	}
	return c.Faults.Corrupt(faults.SiteCacheRead, b), nil
}

// local is the ladder's first two rungs: memory, then the file,
// verified and kept in memory. A by-ID read (byID) takes memory only
// while the file exists, so a deleted trace reads as absent even
// while memory holds it. A file that fails verification is
// quarantined. Both that and an absent file return (nil, nil); other
// read errors propagate.
func (c *Cache) local(id string, byID bool) (*Trace, error) {
	if byID {
		if _, err := os.Stat(c.file(id)); errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		} else if err != nil {
			return nil, fmt.Errorf("disptrace: %w", err)
		}
	}
	if t, _ := c.mem.Get(id); t != nil {
		c.memHits.Add(1)
		return t, nil
	}
	b, err := c.readFile(id)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	} else if err != nil {
		return nil, fmt.Errorf("disptrace: %w", err)
	}
	t := verify(b, id)
	if t == nil {
		// Truncated, bit-flipped, stale or renamed: set it aside and
		// treat as a miss rather than wedging every run on the key or
		// serving another key's trace under this one.
		c.quarantine(id)
		return nil, nil
	}
	c.remember(id, t)
	return t, nil
}

// traceIDPattern is the shape of a content address: the hex sha256
// Key.ID produces. Only the cache knows its own file layout; callers
// (the serving API) enumerate and load by ID through List/LoadID.
var traceIDPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ValidID reports whether id has the shape of a cache content
// address.
func ValidID(id string) bool { return traceIDPattern.MatchString(id) }

// ErrNoTrace reports an ID absent from the cache.
var ErrNoTrace = errors.New("disptrace: no such trace in cache")

// CacheEntry is one resident trace file in the cache index: its
// content address and size plus the identifying metadata and stream
// shape read from the file's header and index (the dictionary and
// the token stream are not read). Diff tooling picks comparable pairs straight from this
// listing.
type CacheEntry struct {
	ID    string `json:"id"`
	Bytes int64  `json:"bytes"`

	Workload  string `json:"workload,omitempty"`
	Lang      string `json:"lang,omitempty"`
	Variant   string `json:"variant,omitempty"`
	Technique string `json:"technique,omitempty"`
	ScaleDiv  uint64 `json:"scalediv,omitempty"`

	// VMInstructions and DictSteps come from the trace's header and
	// index.
	VMInstructions uint64 `json:"vm_instructions,omitempty"`
	DictSteps      int    `json:"dict_steps,omitempty"`
}

// List enumerates every trace resident in the cache directory with
// its index metadata. A missing directory is an empty cache, not an
// error; files whose metadata cannot be read (corrupt, written by an
// older format version, or deleted mid-listing) are listed by id and
// size alone.
func (c *Cache) List() ([]CacheEntry, error) {
	var out []CacheEntry
	live := make(map[string]bool)
	err := c.walk(func(id string, e fs.DirEntry) {
		info, err := e.Info()
		if err != nil {
			return // deleted between ReadDir and stat
		}
		live[id] = true
		entry := CacheEntry{ID: id, Bytes: info.Size()}
		cm, hit := c.metas.Load(id)
		if !hit || cm.(cachedMeta).size != info.Size() || !cm.(cachedMeta).mtime.Equal(info.ModTime()) {
			fresh := cachedMeta{size: info.Size(), mtime: info.ModTime()}
			if m, err := ReadMeta(c.file(id)); err == nil {
				fresh.meta, fresh.ok = m, true
			}
			c.metas.Store(id, fresh)
			cm = fresh
		}
		if m := cm.(cachedMeta); m.ok {
			entry.Workload = m.meta.Header.Workload
			entry.Lang = m.meta.Header.Lang
			entry.Variant = m.meta.Header.Variant
			entry.Technique = m.meta.Header.Technique
			entry.ScaleDiv = m.meta.Header.ScaleDiv
			entry.VMInstructions = m.meta.Header.VMInstructions
			entry.DictSteps = m.meta.DictSteps
		}
		out = append(out, entry)
	})
	if err != nil {
		return nil, err
	}
	// Drop memoized metadata for files no longer resident, so the map
	// tracks the directory instead of its history.
	c.metas.Range(func(k, _ any) bool {
		if !live[k.(string)] {
			c.metas.Delete(k)
		}
		return true
	})
	return out, nil
}

// walk calls fn with the ID and directory entry of every trace file in
// Dir: the one directory walk behind List and Scrub. A missing
// directory is an empty cache, not an error.
func (c *Cache) walk(fn func(id string, e fs.DirEntry)) error {
	entries, err := os.ReadDir(c.Dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	} else if err != nil {
		return fmt.Errorf("disptrace: %w", err)
	}
	for _, e := range entries {
		if id, isTrace := strings.CutSuffix(e.Name(), ".vmdt"); isTrace && ValidID(id) {
			fn(id, e)
		}
	}
	return nil
}

// LoadID loads a cached trace by its content address, climbing the
// ladder without a recorder: memory (while the file exists), disk,
// then Fill. Absent IDs return ErrNoTrace (also for malformed IDs,
// which cannot name a cache file). A file that fails to decode or to
// hash back to id is quarantined and reported as absent: the cache has
// no valid trace under that ID any more.
func (c *Cache) LoadID(id string) (*Trace, error) {
	if !ValidID(id) {
		return nil, ErrNoTrace
	}
	o, err := c.climb(id, nil, nil)
	return o.t, err
}

// MetaID reads one cached trace's metadata by its content address:
// the header and index, with the file's checksum verified, returned
// with the file's size. Neither the dictionary nor the token stream is
// parsed, and a local hit neither consults nor fills memory. A local
// miss climbs the ladder as LoadID does and reads the filled file;
// absent IDs return ErrNoTrace. A file that fails its checksum, is of
// another format version or holds a header that does not hash back to
// id is quarantined and reported as absent, as LoadID does.
func (c *Cache) MetaID(id string) (Meta, int64, error) {
	if !ValidID(id) {
		return Meta{}, 0, ErrNoTrace
	}
	m, size, err := c.metaFile(id)
	if errors.Is(err, fs.ErrNotExist) {
		if _, err = c.LoadID(id); err == nil {
			m, size, err = c.metaFile(id)
		}
	}
	if errors.Is(err, fs.ErrNotExist) {
		return Meta{}, 0, ErrNoTrace
	}
	return m, size, err
}

// metaFile is MetaID's local read: the file's header and index, its
// checksum and content address verified, with its size. An absent file
// returns an fs.ErrNotExist error; a file that fails verification is
// quarantined and reported as ErrNoTrace.
func (c *Cache) metaFile(id string) (Meta, int64, error) {
	b, err := c.readFile(id)
	if err != nil {
		return Meta{}, 0, fmt.Errorf("disptrace: %w", err)
	}
	m, err := DecodeMeta(b)
	if err == nil {
		err = checkSum(b)
	}
	if err != nil || keyOf(m.Header).ID() != id {
		c.quarantine(id)
		return Meta{}, 0, ErrNoTrace
	}
	return m, int64(len(b)), nil
}

// store writes a trace into the cache through the cache.write fault
// sites: injected latency first, then an injected write error, then
// payload corruption of the encoded bytes on their way to disk (a
// later read fails its checksum and exercises quarantine).
func (c *Cache) store(k Key, t *Trace) error {
	c.Faults.Delay(faults.SiteCacheWrite)
	if err := c.Faults.Err(faults.SiteCacheWrite); err != nil {
		return err
	}
	return atomicWrite(c.Path(k), c.Faults.Corrupt(faults.SiteCacheWrite, t.Encode()))
}

// GetOrRecord returns the trace for key, climbing the ladder with
// record as its last rung, so the trace is recorded at most once per
// in-process flight. recorded reports whether this call (or the
// flight it joined) performed a fresh recording rather than a load.
// A filled or recorded trace stays in memory, so the next load does
// not decode the file just written.
//
// Storage failure in either direction is absorbed rather than served:
// a load that errors at the I/O layer falls back to a fill and then
// re-simulation (counted in ReadErrors), and a recording whose cache
// store fails is still returned to the caller (counted in SaveErrors)
// — losing a cache entry costs the next request a re-simulation;
// losing the response would fail this one.
func (c *Cache) GetOrRecord(k Key, record func() (*Trace, error)) (*Trace, bool, error) {
	for {
		o, err := c.climb(k.ID(), &k, record)
		// A by-ID flight that found nothing is no answer to a caller
		// that can record: lead a fresh flight with the recorder.
		if !o.idMiss {
			return o.t, o.recorded, err
		}
	}
}

// climb is the one ladder every read of trace id takes, under the
// cache's flight keyed by id: memory → disk (local) → Fill → record.
// k is nil for a by-ID read, which has no recorder: its miss is final
// and reports the read error, or ErrNoTrace.
func (c *Cache) climb(id string, k *Key, record func() (*Trace, error)) (cacheOutcome, error) {
	o, leader, err := c.flight.Do(id, func() (cacheOutcome, error) {
		t, err := c.local(id, k == nil)
		if t != nil {
			c.loads.Add(1)
			return cacheOutcome{t: t}, nil
		}
		if err != nil {
			c.readErrors.Add(1)
		}
		if t := c.fill(id, k); t != nil {
			return cacheOutcome{t: t}, nil
		}
		if k == nil {
			if err == nil {
				err = ErrNoTrace
			}
			return cacheOutcome{idMiss: true}, err
		}
		t, err = record()
		if err != nil {
			return cacheOutcome{}, err
		}
		if err := c.store(*k, t); err != nil {
			c.saveErrors.Add(1)
		}
		c.records.Add(1)
		// A recording for another key is served but never kept: memory
		// holds only what hashes back to its ID.
		if keyOf(t.Header) == *k {
			c.remember(id, t)
		}
		return cacheOutcome{t: t, recorded: true}, nil
	})
	if !leader {
		c.joined.Add(1)
	}
	return o, err
}

// fill is the ladder's third rung: it asks the Fill hook for trace id
// after a local miss. A usable result is verified against the content
// address, persisted locally (best effort — a store failure costs the
// next request another fill, not this response), kept in memory and
// returned; anything else — hook absent, hook error, empty result, or
// a payload that fails verification — returns nil so the caller falls
// through. The ladder is strictly local → fill → simulate: fill never
// makes a miss worse than it already was.
func (c *Cache) fill(id string, k *Key) *Trace {
	if c.Fill == nil {
		return nil
	}
	b, err := c.Fill(id, k)
	if err != nil {
		c.peerFillErrors.Add(1)
		return nil
	}
	if len(b) == 0 {
		c.peerFillMisses.Add(1)
		return nil
	}
	t := verify(b, id)
	if t == nil {
		c.peerFillErrors.Add(1)
		return nil
	}
	if err := atomicWrite(c.file(id), b); err != nil {
		c.saveErrors.Add(1)
	}
	c.peerFills.Add(1)
	c.remember(id, t)
	return t
}

// ReadRaw returns the raw stored bytes of a resident trace file — the
// peer-serving side of the fill protocol. It reads the disk directly
// (no fault injection, no fill recursion: an instance serves only
// what it actually has), and the requesting peer verifies the payload
// against the content address, so no decode happens here.
func (c *Cache) ReadRaw(id string) ([]byte, error) {
	if !ValidID(id) {
		return nil, ErrNoTrace
	}
	b, err := os.ReadFile(c.file(id))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNoTrace
		}
		return nil, fmt.Errorf("disptrace: %w", err)
	}
	c.peerServes.Add(1)
	return b, nil
}

// ScrubReport summarizes a cache verification pass.
type ScrubReport struct {
	// Checked counts trace files examined; Quarantined counts those
	// that failed to decode or did not match their content address
	// and were moved to the quarantine sidecar dir.
	Checked     int   `json:"checked"`
	Quarantined int   `json:"quarantined"`
	Bytes       int64 `json:"bytes"`
}

// Scrub verifies every resident trace file — full decode (checksum,
// dictionary and every step ID) plus a content-address check of the
// decoded header —
// and quarantines the failures. It reads the disk directly, bypassing
// injected read faults: scrub verifies what is actually stored.
// vmserved runs it at startup under -scrub.
func (c *Cache) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	err := c.walk(func(id string, _ fs.DirEntry) {
		b, err := os.ReadFile(c.file(id))
		if err != nil {
			return // deleted mid-scrub, or unreadable: nothing to verify
		}
		rep.Checked++
		rep.Bytes += int64(len(b))
		if verify(b, id) == nil {
			c.quarantine(id)
			rep.Quarantined++
		}
	})
	return rep, err
}
