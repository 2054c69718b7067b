package runner

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"

	"vmopt/internal/metrics"
)

// SchemaVersion identifies the JSON result schema. Bump it when the
// shape of Report changes incompatibly; ReadReport refuses reports of
// another schema version.
const SchemaVersion = "vmbench/v1"

// Run is the structured record of one simulated (workload, variant,
// machine) execution: the raw counters plus the derived rates the
// paper reports.
type Run struct {
	Workload string `json:"workload"`
	Variant  string `json:"variant"`
	Machine  string `json:"machine"`
	Scale    int    `json:"scale"`

	Counters metrics.Counters `json:"counters"`

	MispredictRate float64 `json:"mispredict_rate"`
	BranchFraction float64 `json:"branch_fraction"`
	InstrsPerVM    float64 `json:"instrs_per_vm"`
}

// NewRun derives the rate fields from c and returns the populated
// record.
func NewRun(workload, variant, machine string, scale int, c metrics.Counters) Run {
	return Run{
		Workload:       workload,
		Variant:        variant,
		Machine:        machine,
		Scale:          scale,
		Counters:       c,
		MispredictRate: c.MispredictRate(),
		BranchFraction: c.BranchFraction(),
		InstrsPerVM:    c.InstrsPerVM(),
	}
}

// Key identifies the run: reports sort by it, and the exact counter
// reference is keyed by it.
func (r Run) Key() string {
	return r.Workload + "/" + r.Variant + "/" + r.Machine + "/" + strconv.Itoa(r.Scale)
}

// Table is a rendered experiment grid — the serializable mirror of
// the harness table layer.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// Experiment is the structured output of one named experiment: its
// rendered tables plus any free-form summary lines.
type Experiment struct {
	Name   string   `json:"name"`
	Tables []Table  `json:"tables"`
	Notes  []string `json:"notes,omitempty"`
}

// Host describes the environment a report was captured in. The
// simulated counters are deterministic — host and parallelism never
// change a single run — but the capture environment still matters for
// interpreting wall-clock claims around an artifact: a ReplayEach
// speedup measured with GOMAXPROCS=1 reflects shared decode only,
// while a multi-core capture additionally shards the apply cost. Every
// checked-in BENCH_*.json therefore records where it came from.
type Host struct {
	// GoMaxProcs is runtime.GOMAXPROCS(0) at capture time — the
	// parallelism actually available to worker pools and replay
	// appliers.
	GoMaxProcs int `json:"gomaxprocs"`
	// NumCPU is runtime.NumCPU at capture time.
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
}

// CurrentHost captures the running process's host metadata.
func CurrentHost() *Host {
	return &Host{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// Report is the top-level machine-readable result document. It is
// free of wall-clock metadata (timestamps, run durations) so that the
// same experiments at the same scale serialize to identical bytes on
// one machine whatever -jobs was; the optional Host block describes
// the capture environment without affecting any run.
type Report struct {
	Schema      string       `json:"schema"`
	Exp         string       `json:"exp"`
	ScaleDiv    int          `json:"scalediv"`
	Host        *Host        `json:"host,omitempty"`
	Experiments []Experiment `json:"experiments"`
	Runs        []Run        `json:"runs"`
}

// sortedRuns returns a copy of Runs ordered by Key. Serialization
// always emits sorted runs but never reorders the caller's report.
func (r *Report) sortedRuns() []Run {
	runs := append([]Run(nil), r.Runs...)
	sort.Slice(runs, func(i, j int) bool { return runs[i].Key() < runs[j].Key() })
	return runs
}

// WriteJSON serializes the report as indented JSON with runs in key
// order.
func (r *Report) WriteJSON(w io.Writer) error {
	out := *r
	out.Runs = r.sortedRuns()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// ReadReport parses a JSON report and checks its schema version.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("parsing report: %w", err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("report schema %q, want %q", r.Schema, SchemaVersion)
	}
	return &r, nil
}

// csvHeader names the flat per-run CSV columns.
var csvHeader = []string{
	"workload", "variant", "machine", "scale",
	"cycles", "instructions", "indirect_branches", "mispredicted",
	"icache_misses", "miss_cycles", "code_bytes",
	"vm_instructions", "dispatches",
	"mispredict_rate", "branch_fraction", "instrs_per_vm",
}

func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
func fu(v uint64) string  { return strconv.FormatUint(v, 10) }

// WriteCSV serializes the report's runs as one flat CSV table,
// sorted by run key.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, run := range r.sortedRuns() {
		c := run.Counters
		rec := []string{
			run.Workload, run.Variant, run.Machine, strconv.Itoa(run.Scale),
			ff(c.Cycles), fu(c.Instructions), fu(c.IndirectBranches), fu(c.Mispredicted),
			fu(c.ICacheMisses), ff(c.MissCycles), fu(c.CodeBytes),
			fu(c.VMInstructions), fu(c.Dispatches),
			ff(run.MispredictRate), ff(run.BranchFraction), ff(run.InstrsPerVM),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadRunsCSV parses the flat CSV form back into runs; it is the
// inverse of WriteCSV.
func ReadRunsCSV(rd io.Reader) ([]Run, error) {
	cr := csv.NewReader(rd)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("empty CSV")
	}
	if got, want := len(records[0]), len(csvHeader); got != want {
		return nil, fmt.Errorf("CSV has %d columns, want %d", got, want)
	}
	// Validate the header: a headerless file would otherwise lose its
	// first run to the records[1:] slice below.
	for k, name := range csvHeader {
		if records[0][k] != name {
			return nil, fmt.Errorf("CSV header column %d is %q, want %q", k, records[0][k], name)
		}
	}
	var runs []Run
	for li, rec := range records[1:] {
		fail := func(err error) ([]Run, error) {
			return nil, fmt.Errorf("CSV line %d: %w", li+2, err)
		}
		scale, err := strconv.Atoi(rec[3])
		if err != nil {
			return fail(err)
		}
		var fs [3]float64 // cycles, miss_cycles, and derived rates parsed below
		var us [7]uint64
		for k, col := range []int{5, 6, 7, 8, 10, 11, 12} {
			if us[k], err = strconv.ParseUint(rec[col], 10, 64); err != nil {
				return fail(err)
			}
		}
		for k, col := range []int{4, 9, 13} {
			if fs[k], err = strconv.ParseFloat(rec[col], 64); err != nil {
				return fail(err)
			}
		}
		bf, err := strconv.ParseFloat(rec[14], 64)
		if err != nil {
			return fail(err)
		}
		ipv, err := strconv.ParseFloat(rec[15], 64)
		if err != nil {
			return fail(err)
		}
		runs = append(runs, Run{
			Workload: rec[0], Variant: rec[1], Machine: rec[2], Scale: scale,
			Counters: metrics.Counters{
				Cycles: fs[0], Instructions: us[0], IndirectBranches: us[1],
				Mispredicted: us[2], ICacheMisses: us[3], MissCycles: fs[1],
				CodeBytes: us[4], VMInstructions: us[5], Dispatches: us[6],
			},
			MispredictRate: fs[2], BranchFraction: bf, InstrsPerVM: ipv,
		})
	}
	return runs, nil
}
