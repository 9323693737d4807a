package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// Tracks (Chrome trace thread ids) the spans are drawn on.
const (
	trackClient   = 1 // the generator / epoch loop
	trackAcks     = 2 // future resolutions observed by the ack collector
	trackEngine   = 3 // engine epochs the Submitter ran (open loop only)
	trackRecovery = 4
)

// span is one timed interval recorded by the benchmark around a call into
// the engine. Its layer is the part of the name before the first dot.
type span struct {
	name   string
	id     int32 // index in tracer.spans plus one
	parent int32 // 0 for a root
	track  int32
	start  int64 // ns since the tracer's origin
	dur    int64
	// wait marks an interval spent waiting on another layer (a future
	// resolving), which self-time accounting does not count as work.
	wait bool
}

// sample is one snapshot of counters, taken at an epoch boundary.
type sample struct {
	at     int64
	values map[string]any
}

// tracer keeps spans and counter samples in memory until the run ends. A
// nil *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	origin  time.Time
	spans   []span
	samples []sample
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its id for use as a parent.
func (t *tracer) add(name string, parent, track int32, start time.Time, dur time.Duration) int32 {
	if t == nil {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		name: name, id: id, parent: parent, track: track,
		start: int64(start.Sub(t.origin)), dur: int64(dur),
	})
	return id
}

// addWait records a waiting span.
func (t *tracer) addWait(name string, parent, track int32, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.add(name, parent, track, start, dur)
	t.spans[len(t.spans)-1].wait = true
}

// addStages lays child spans end to end from start, the way the engine's
// EpochResult and RecoveryReport stage durations tile their call.
func (t *tracer) addStages(parent, track int32, start time.Time, names []string, durs []time.Duration) {
	for i, d := range durs {
		t.add(names[i], parent, track, start, d)
		start = start.Add(d)
	}
}

func (t *tracer) sample(at time.Time, values map[string]any) {
	if t == nil {
		return
	}
	t.samples = append(t.samples, sample{at: int64(at.Sub(t.origin)), values: values})
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time: the duration of its outermost
// spans minus the part of each interval covered by direct children in
// other layers. Nested spans of the same layer (engine stages inside an
// epoch) are already inside their parent and are not counted twice; wait
// spans are not work and are skipped.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int32][]*span)
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for i := range t.spans {
		s := &t.spans[i]
		layer := layerOf(s.name)
		if s.wait || (s.parent != 0 && layerOf(t.spans[s.parent-1].name) == layer) {
			continue
		}
		var ivs [][2]int64
		for _, c := range children[s.id] {
			if layerOf(c.name) != layer && !c.wait {
				ivs = append(ivs, [2]int64{c.start, c.start + c.dur})
			}
		}
		self[layer] += time.Duration(s.dur - covered(ivs, s.start, s.start+s.dur))
	}
	return self
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans and counter samples as Chrome trace_event
// JSON, loadable by chrome://tracing and Perfetto.
func (t *tracer) writeChrome(path string) error {
	var events []chromeEvent
	for tid, name := range map[int32]string{trackClient: "client", trackAcks: "acks", trackEngine: "engine", trackRecovery: "recovery"} {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": name}})
	}
	for _, s := range t.spans {
		e := chromeEvent{Name: s.name, Cat: layerOf(s.name), Ph: "X", Pid: 1, Tid: s.track,
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3}
		if s.parent != 0 {
			e.Args = map[string]any{"id": s.id, "parent": s.parent}
		}
		events = append(events, e)
	}
	for _, c := range t.samples {
		events = append(events, chromeEvent{Name: "counters", Ph: "C", Pid: 1, Tid: trackClient,
			Ts: float64(c.at) / 1e3, Args: c.values})
	}
	b, err := json.Marshal(struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{"ns", events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
