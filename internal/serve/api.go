package serve

import (
	"fmt"
	"sort"
	"strings"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/runner"
	"vmopt/internal/workload"
)

// RunRequest asks for one (workload, variant, machine) cell of the
// experiment space — the body of POST /v1/run.
type RunRequest struct {
	Workload string `json:"workload"`
	Variant  string `json:"variant"`
	Machine  string `json:"machine"`
	// ScaleDiv divides the workload's default scale; <= 0 means the
	// server's default.
	ScaleDiv int `json:"scalediv,omitempty"`
}

// SweepRequest asks for a grid of cells — the body of POST /v1/sweep.
// Empty Variants or Machines default to every variant of each
// workload's language and every predefined machine model; Workloads
// must be explicit (an accidental all-benchmarks sweep is the
// expensive mistake this API exists to make deliberate). Duplicate
// names in any list are deduplicated, so repeating one never doubles
// cells or trips the grid-size bound.
type SweepRequest struct {
	Workloads []string `json:"workloads"`
	Variants  []string `json:"variants,omitempty"`
	Machines  []string `json:"machines,omitempty"`
	ScaleDiv  int      `json:"scalediv,omitempty"`
	// Resume is a cursor token from a previous, interrupted response
	// to this same sweep (the cursor lines the stream interleaves):
	// groups the cursor marks done are skipped and only the remaining
	// grid is computed and streamed. A cursor issued for a different
	// grid (other workloads/variants/machines/scalediv) is rejected.
	Resume string `json:"resume,omitempty"`
}

// SweepLine is one NDJSON line of a sweep response: a completed cell,
// a failed group cell, a resume cursor, or the final summary. Exactly
// one of Run, Error, Cursor or Done is meaningful per line. Lines are
// emitted as cells complete, so their order varies between identical
// requests; their multiset does not.
type SweepLine struct {
	Run *runner.Run `json:"run,omitempty"`

	Workload string `json:"workload,omitempty"`
	Variant  string `json:"variant,omitempty"`
	Machine  string `json:"machine,omitempty"`
	Error    string `json:"error,omitempty"`

	// Cursor is a resume token covering every group completed so far
	// (cumulative, including groups a resumed request skipped). A
	// client that loses the stream re-requests the sweep with the
	// last cursor it saw as SweepRequest.Resume and receives exactly
	// the remaining groups. Each successful group emits one cursor
	// line after its cells.
	Cursor string `json:"cursor,omitempty"`

	Done   bool `json:"done,omitempty"`
	Cells  int  `json:"cells,omitempty"`
	Groups int  `json:"groups,omitempty"`
	Errors int  `json:"errors,omitempty"`
	// Skipped, on the summary line, counts groups a resume cursor
	// marked done and this response did not re-stream.
	Skipped int `json:"skipped,omitempty"`
}

// TraceInfo is the metadata GET /v1/traces/{id} reports about one
// cached dispatch trace.
type TraceInfo struct {
	ID         string `json:"id"`
	FileBytes  int64  `json:"file_bytes"`
	Workload   string `json:"workload"`
	Lang       string `json:"lang"`
	Variant    string `json:"variant"`
	Technique  string `json:"technique"`
	Scale      uint64 `json:"scale"`
	ScaleDiv   uint64 `json:"scalediv"`
	MaxSteps   uint64 `json:"max_steps"`
	Dispatches uint64 `json:"dispatches"`
	VMInsts    uint64 `json:"vm_instructions"`
	// DictSteps is the size of the trace's step dictionary;
	// StoredBytes and RawBytes size its step-ID stream on disk
	// (flate-compressed) and inflated.
	DictSteps   int `json:"dict_steps"`
	StoredBytes int `json:"stored_bytes"`
	RawBytes    int `json:"raw_bytes"`
}

// DiffRequest asks for an instruction-aligned comparison of two
// cached traces — the body of POST /v1/diff. A and B are trace
// content addresses from GET /v1/traces; N bounds how many
// divergences are detailed (DefaultDiffDetail when zero).
type DiffRequest struct {
	A string `json:"a"`
	B string `json:"b"`
	N int    `json:"n,omitempty"`
}

// DiffResponse is the POST /v1/diff document: the requested pair plus
// the alignment report.
type DiffResponse struct {
	A      string                `json:"a"`
	B      string                `json:"b"`
	Report *disptrace.DiffReport `json:"report"`
}

// TraceList is the GET /v1/traces index: every trace resident in the
// on-disk cache (rows come straight from disptrace.Cache.List — the
// cache owns its file layout).
type TraceList struct {
	Count  int                    `json:"count"`
	Traces []disptrace.CacheEntry `json:"traces"`
}

// cell identifies one experiment cell at a resolved scale divisor —
// the key of the in-memory result LRU.
type cell struct {
	workload string
	variant  string
	machine  string
	scaleDiv int
}

// resolved is a validated cell with its live objects.
type resolved struct {
	cell cell
	w    *workload.Workload
	v    harness.Variant
	m    cpu.Machine
}

// group is the unit of execution and coalescing for both /v1/run (one
// cell) and /v1/sweep: every cell of one (workload, variant, scalediv)
// that the request wants, in request machine order. Grouped cells
// share one trace decode via Suite.Compute.
type group struct {
	key   string // canonical coalescing key, machines sorted
	cells []resolved
}

// newGroup builds the group of w and v at scaleDiv over machines.
func newGroup(w *workload.Workload, v harness.Variant, scaleDiv int, machines []cpu.Machine) group {
	g := group{key: groupKey(w.Name, v.Name, scaleDiv, machines), cells: make([]resolved, len(machines))}
	for i, m := range machines {
		g.cells[i] = resolved{
			cell: cell{workload: w.Name, variant: v.Name, machine: m.Name, scaleDiv: scaleDiv},
			w:    w, v: v, m: m,
		}
	}
	return g
}

// resolveCell validates a RunRequest against the registries and
// returns its one-cell group.
func resolveCell(req RunRequest, scaleDiv int) (group, error) {
	w, err := workload.ByName(req.Workload)
	if err != nil {
		return group{}, err
	}
	v, err := harness.VariantByName(w, req.Variant)
	if err != nil {
		return group{}, err
	}
	m, err := cpu.MachineByName(req.Machine)
	if err != nil {
		return group{}, err
	}
	return newGroup(w, v, scaleDiv, []cpu.Machine{m}), nil
}

// resolveSweep expands a SweepRequest into execution groups. Variants
// that exist for some requested workloads but not others (the paper's
// Forth and JVM variant lists differ) apply only where they exist; a
// variant or machine that matches nothing is an error.
func resolveSweep(req SweepRequest, scaleDiv int) ([]group, error) {
	if len(req.Workloads) == 0 {
		return nil, fmt.Errorf("workloads must be non-empty")
	}
	ws := make([]*workload.Workload, 0, len(req.Workloads))
	seenW := map[string]bool{}
	for _, name := range req.Workloads {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		if !seenW[w.Name] {
			seenW[w.Name] = true
			ws = append(ws, w)
		}
	}

	machines := make([]cpu.Machine, 0, len(req.Machines))
	if len(req.Machines) == 0 {
		machines = cpu.Machines()
	} else {
		seen := map[string]bool{}
		for _, name := range req.Machines {
			m, err := cpu.MachineByName(name)
			if err != nil {
				return nil, err
			}
			if !seen[m.Name] {
				seen[m.Name] = true
				machines = append(machines, m)
			}
		}
	}

	variantNames := req.Variants
	variantUsed := make(map[string]bool, len(variantNames))

	var groups []group
	for _, w := range ws {
		var vs []harness.Variant
		if len(variantNames) == 0 {
			if w.Lang == "forth" {
				vs = harness.ForthVariants()
			} else {
				vs = harness.JavaVariants()
			}
		} else {
			seen := map[string]bool{}
			for _, name := range variantNames {
				v, err := harness.VariantByName(w, name)
				if err != nil {
					continue // not defined for this workload's language
				}
				variantUsed[name] = true
				if !seen[v.Name] {
					seen[v.Name] = true
					vs = append(vs, v)
				}
			}
		}
		for _, v := range vs {
			groups = append(groups, newGroup(w, v, scaleDiv, machines))
		}
	}
	for _, name := range variantNames {
		if !variantUsed[name] {
			return nil, fmt.Errorf("variant %q matches none of the requested workloads", name)
		}
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("sweep resolves to no cells")
	}
	return groups, nil
}

// groupKey canonicalizes a group for coalescing: identical concurrent
// sweeps — and overlapping sweeps that share a whole group — land on
// one computation regardless of machine order in the request.
func groupKey(workload, variant string, scaleDiv int, machines []cpu.Machine) string {
	names := make([]string, len(machines))
	for i, m := range machines {
		names[i] = m.Name
	}
	sort.Strings(names)
	return fmt.Sprintf("%s|%s|%d|%s", workload, variant, scaleDiv, strings.Join(names, "+"))
}
