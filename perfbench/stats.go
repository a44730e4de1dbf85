package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// minTail is the number of samples a reported percentile needs beyond
// it: p90 needs at least 100 samples.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank method, and whether at least minTail samples lie beyond
// it. A percentile without that tail is not reported.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n-1-idx >= minTail
}

// result is one op's outcome as the client saw it.
type result struct {
	latencyMs float64
	code      int   // HTTP status; 0 on a transport error
	failed    bool  // non-200/201/204, transport error, or a failed check
	err       error // transport error or the failed check
	reqBytes  int
	body      []byte
}

// latencySummary is the client-side timing of a pass.
type latencySummary struct {
	attempted, ok, withinLimit int
	p50, p90, meanMs           float64
}

// summarize computes percentiles over the successful ops and SLO
// attainment over all attempted ops: a failed op misses the limit
// whatever its latency.
func summarize(results []result, limitMs float64) (latencySummary, error) {
	s := latencySummary{attempted: len(results)}
	lat := make([]float64, 0, len(results))
	var sum float64
	for _, r := range results {
		if r.failed {
			continue
		}
		s.ok++
		lat = append(lat, r.latencyMs)
		sum += r.latencyMs
		if r.latencyMs <= limitMs {
			s.withinLimit++
		}
	}
	sort.Float64s(lat)
	var ok bool
	s.p50, _ = percentile(lat, 0.50)
	if s.p90, ok = percentile(lat, 0.90); !ok {
		return s, fmt.Errorf("p90 needs at least %d samples beyond it; %d successful ops", minTail, len(lat))
	}
	s.meanMs = sum / float64(len(lat))
	return s, nil
}

// ratio is num/den, 0 for an empty base (a layer that never ran).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// promSamples parses Prometheus text exposition format 0.0.4 into
// sample name (labels included, as written) → value.
func promSamples(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: sample %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// promDelta is the change of every sample between two scrapes.
type promDelta map[string]float64

func deltaOf(before, after map[string]float64) promDelta {
	d := make(promDelta, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// counter is a plain counter family's delta.
func (d promDelta) counter(name string) float64 { return d[name] }

// histMean is a histogram family's mean observation over the window, in
// the family's unit, and the observation count.
func (d promDelta) histMean(name string) (mean float64, count float64) {
	count = d[name+"_count"]
	if count == 0 {
		return 0, 0
	}
	return d[name+"_sum"] / count, count
}

// clockTicksPerSec is USER_HZ, the unit of /proc/<pid>/stat CPU times:
// 100 on every Linux ABI Go supports.
const clockTicksPerSec = 100

// procCPUSeconds parses /proc/<pid>/stat and returns user+system CPU
// seconds. The command name (field 2) may contain spaces and parentheses,
// so fields are counted from the last ')'.
func procCPUSeconds(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command name")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name", len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: bad utime/stime")
	}
	return float64(utime+stime) / clockTicksPerSec, nil
}

// procHWMBytes parses /proc/<pid>/status and returns VmHWM, the peak
// resident set size, in bytes.
func procHWMBytes(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %q: %w", line, err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// median of a non-empty sample.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gcLine matches a GODEBUG=gctrace=1 line, which numbers the cycle:
// "gc 12 @3.456s 1%: ...".
var gcLine = regexp.MustCompile(`(?m)^gc (\d+) @`)

// lastGCCycle returns the number of the last garbage collection a
// gctrace log records, 0 before the first.
func lastGCCycle(log string) (int, error) {
	m := gcLine.FindAllStringSubmatch(log, -1)
	if len(m) == 0 {
		return 0, nil
	}
	return strconv.Atoi(m[len(m)-1][1])
}
