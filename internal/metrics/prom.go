package metrics

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promExpBuckets are the histogram bucket exponents the Prometheus
// renderer exposes: every other power-of-two boundary from 2^10 ns
// (1.024µs) to 2^36 ns (~68.7s), plus +Inf. Cumulative bucket counts
// are exact at any boundary subset (an le series is "observations at
// or under this bound"), so rendering a fixed, readable subset of the
// histogram's 63 internal buckets loses resolution, never
// correctness; the subset is fixed so a scraped series' le labels
// never change across process restarts.
var promExpBuckets = func() []int {
	var exps []int
	for e := 10; e <= 36; e += 2 {
		exps = append(exps, e)
	}
	return exps
}()

// TextContentType is the Content-Type of the exposition output:
// Prometheus text format version 0.0.4.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered metric in Prometheus text
// exposition format 0.0.4: a # HELP and # TYPE line per family, then
// one line per series (counter/gauge) or the
// _bucket/_sum/_count triplet (histogram). Durations render in
// seconds, per Prometheus convention.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.sorted() {
			writeSeries(bw, f, s)
		}
	}
	return bw.Flush()
}

func writeSeries(w *bufio.Writer, f *family, s *series) {
	labels := ""
	if f.label != "" {
		labels = fmt.Sprintf(`{%s="%s"}`, f.label, escapeLabel(s.labelVal))
	}
	switch {
	case s.counter != nil:
		fmt.Fprintf(w, "%s%s %d\n", f.name, labels, s.counter.Load())
	case s.counterFn != nil:
		fmt.Fprintf(w, "%s%s %d\n", f.name, labels, s.counterFn())
	case s.gauge != nil:
		fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(s.gauge.Load()))
	case s.gaugeFn != nil:
		fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(s.gaugeFn()))
	case s.hist != nil:
		writeHistogram(w, f, s)
	}
}

// writeHistogram renders one histogram series: cumulative buckets at
// the fixed boundary subset, the +Inf bucket, then _sum (seconds) and
// _count. The counts are loaded once, so the rendered cumulative
// sequence is monotone even under concurrent observes; _count is
// derived from the same load rather than the histogram's own count so
// bucket{le="+Inf"} == _count always holds within one scrape.
func writeHistogram(w *bufio.Writer, f *family, s *series) {
	counts := s.hist.BucketCounts()
	sumNS := s.hist.Sum()

	bucketLabels := func(le string) string {
		if f.label != "" {
			return fmt.Sprintf(`{%s="%s",le="%s"}`, f.label, escapeLabel(s.labelVal), le)
		}
		return fmt.Sprintf(`{le="%s"}`, le)
	}
	var cum uint64
	next := 0
	for _, exp := range promExpBuckets {
		// Internal bucket i covers [2^i, 2^(i+1)) ns; everything below
		// boundary 2^exp is buckets 0..exp-1.
		for ; next < exp && next < NumBuckets; next++ {
			cum += counts[next]
		}
		le := formatFloat(float64(uint64(1)<<exp) / 1e9)
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bucketLabels(le), cum)
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bucketLabels("+Inf"), total)

	labels := ""
	if f.label != "" {
		labels = fmt.Sprintf(`{%s="%s"}`, f.label, escapeLabel(s.labelVal))
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labels, formatFloat(float64(sumNS)/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, labels, total)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string per the exposition format:
// backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format:
// backslash, newline and double quote.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// ParseExposition parses Prometheus text exposition format 0.0.4 into
// a flat map of series (name plus label set, verbatim) to value. It
// is deliberately strict for a scraper this small: any line that is
// neither a well-formed comment nor a well-formed sample is an error,
// which is what lets CI fail a run whose /metrics output would not
// scrape.
func ParseExposition(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				return nil, fmt.Errorf("metrics line %d: malformed comment %q", n, line)
			}
			continue
		}
		var key, val string
		if i := strings.Index(line, "{"); i >= 0 {
			// Label values may in principle contain spaces, so split at
			// the closing brace rather than the first space.
			j := strings.LastIndex(line, "} ")
			if j < i {
				return nil, fmt.Errorf("metrics line %d: unterminated label set %q", n, line)
			}
			key, val = line[:j+1], strings.TrimSpace(line[j+2:])
		} else {
			f := strings.Fields(line)
			if len(f) != 2 {
				return nil, fmt.Errorf("metrics line %d: want \"name value\", got %q", n, line)
			}
			key, val = f[0], f[1]
		}
		if key == "" || !(key[0] == '_' || key[0] == ':' ||
			key[0] >= 'a' && key[0] <= 'z' || key[0] >= 'A' && key[0] <= 'Z') {
			return nil, fmt.Errorf("metrics line %d: invalid metric name in %q", n, line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: bad value %q: %v", n, val, err)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("metrics line %d: duplicate series %q", n, key)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ScrapeMetrics fetches and parses a target's GET /metrics.
func ScrapeMetrics(client *http.Client, addr string) (map[string]float64, error) {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return ParseExposition(resp.Body)
}
