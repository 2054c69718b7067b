package loadgen

import (
	"strconv"
	"strings"
)

// parseServerTiming extracts per-stage millisecond durations from a
// Server-Timing header value ("lru;dur=0.012, sim;dur=41.3").
// Unparseable entries are skipped — the header is advisory latency
// attribution, not a correctness surface.
func parseServerTiming(v string) map[string]float64 {
	out := map[string]float64{}
	for _, entry := range strings.Split(v, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		if len(parts) < 2 || parts[0] == "" {
			continue
		}
		for _, p := range parts[1:] {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(p), "dur="); ok {
				if ms, err := strconv.ParseFloat(rest, 64); err == nil {
					out[parts[0]] += ms
				}
			}
		}
	}
	return out
}
