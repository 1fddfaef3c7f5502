package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a probe call, the whole
// traced Train, or one rank's arrival at an epoch boundary.
type span struct {
	ID       int
	Parent   int // 0 for a root
	Name     string
	Lane     int // trace row: 0 for the benchmark itself, 1+k for the k-th arrival at an epoch boundary
	Start    time.Duration
	End      time.Duration
	Workload string
}

// recorder keeps spans in memory until the pass ends; it is safe for use
// from every rank goroutine.
type recorder struct {
	mu       sync.Mutex
	origin   time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{origin: time.Now(), workload: workload}
}

// begin opens a span now and returns its id, for end and for use as a parent.
func (r *recorder) begin(name string, parent int) int {
	return r.add(name, parent, 0, time.Now(), time.Time{})
}

// end closes the span begin opened.
func (r *recorder) end(id int) {
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = now.Sub(r.origin)
	r.mu.Unlock()
}

// add records a span with known bounds and returns its id.
func (r *recorder) add(name string, parent, lane int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Lane: lane,
		Start: start.Sub(r.origin), End: end.Sub(r.origin), Workload: r.workload,
	})
	return id
}

// writeChrome writes the spans in Chrome trace-event format ("X" complete
// events, microsecond timestamps), loadable in chrome://tracing or Perfetto.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts: float64(s.Start) / float64(time.Microsecond), Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload},
		}
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
