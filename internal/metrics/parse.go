package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseText parses Prometheus text exposition into a flat map from series
// (metric name plus rendered label set, exactly as exposed — e.g.
// `cgct_jobs{state="done"}`) to value: for this package's own output, the
// same map Registry.Snapshot returns. It understands the subset this
// package emits: # comments, and one `series value` sample per line, and
// intentionally rejects anything malformed rather than guessing.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// The value is the last space-separated field; the series (which may
		// contain spaces only inside quoted label values) is everything
		// before it.
		cut := strings.LastIndexByte(text, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics: line %d: no value in %q", line, text)
		}
		series, raw := strings.TrimSpace(text[:cut]), text[cut+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: bad value %q: %w", line, raw, err)
		}
		if series == "" {
			return nil, fmt.Errorf("metrics: line %d: empty series name", line)
		}
		if _, dup := out[series]; dup {
			return nil, fmt.Errorf("metrics: line %d: duplicate series %s", line, series)
		}
		out[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
