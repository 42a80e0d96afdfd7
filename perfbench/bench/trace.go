package bench

import (
	"encoding/json"
	"io"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// replan (or one swap, on serve_swap) share a Replan id; set-up spans use
// -1. Parent indexes the enclosing span in the recorder, -1 for a root.
type Span struct {
	Name    string `json:"name"`
	Replan  int    `json:"replan"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory; they are written out once the run ends.
// A nil recorder records nothing, which is the untraced configuration:
// every method is a no-op on nil, so the measured code path is the same
// in both runs apart from the recording itself.
type recorder struct {
	now    func() time.Duration
	spans  []Span
	replan int
}

func newRecorder(now func() time.Duration) *recorder {
	return &recorder{now: now, spans: make([]Span, 0, 1<<14)}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, Span{Name: name, Replan: r.replan, Parent: parent, StartNS: int64(r.now())})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].EndNS = int64(r.now())
}

// setReplan tags the spans that follow with replan id k.
func (r *recorder) setReplan(k int) {
	if r != nil {
		r.replan = k
	}
}

// selfTimes returns each span's duration minus the part its direct
// children cover, indexed like the spans.
func selfTimes(spans []Span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.Dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur()
		}
	}
	return self
}

// durations returns, per replan id, the total duration of the spans named
// name, in replan order of first appearance; used for the per-layer
// medians.
func durations(spans []Span, name string) []float64 {
	var out []float64
	last := -2
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if s.Replan == last && len(out) > 0 {
			out[len(out)-1] += float64(s.Dur())
			continue
		}
		out = append(out, float64(s.Dur()))
		last = s.Replan
	}
	return out
}

// coverage reports, over every span named root, the smallest share of its
// wall time its children cover and the median share they leave
// unattributed.
func coverage(spans []Span, root string) (minCovered, medianUnattributed float64) {
	self := selfTimes(spans)
	minCovered = 1
	var un []float64
	for i, s := range spans {
		if s.Name != root || s.Dur() <= 0 {
			continue
		}
		u := float64(self[i]) / float64(s.Dur())
		un = append(un, u)
		if c := 1 - u; c < minCovered {
			minCovered = c
		}
	}
	if len(un) == 0 {
		return 0, 1
	}
	return minCovered, median(un)
}

// writeSpans emits the spans as one JSON document.
func writeSpans(w io.Writer, workload string, seed int64, spans []Span) error {
	return json.NewEncoder(w).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []Span `json:"spans"`
	}{workload, seed, spans})
}
