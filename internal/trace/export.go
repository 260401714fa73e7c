// Structured trace exporters. Both are streaming Sinks: attach one to a
// tracer (proc.Config.TraceSink) and every protocol event is rendered as it
// is recorded, so exports cover the whole run regardless of ring capacity.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"tlrsim/internal/memsys"
)

// JSONLWriter renders one JSON object per event, one per line. Fields with
// zero values (line, info) are omitted.
type JSONLWriter struct {
	w *bufio.Writer
}

// NewJSONLWriter wraps w; call Close when the run is finished to flush.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w)}
}

type jsonlEvent struct {
	At   uint64 `json:"at"`
	CPU  int    `json:"cpu"`
	Kind string `json:"kind"`
	Line string `json:"line,omitempty"`
	Info string `json:"info,omitempty"`
}

// Emit implements Sink.
func (j *JSONLWriter) Emit(e Event) {
	rec := jsonlEvent{At: uint64(e.At), CPU: e.CPU, Kind: e.Kind.String(), Info: e.Info}
	if e.Line != 0 {
		rec.Line = e.Line.String()
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	j.w.Write(b)
	j.w.WriteByte('\n')
}

// Close flushes buffered output.
func (j *JSONLWriter) Close() error { return j.w.Flush() }

// ChromeWriter renders the run in the Chrome trace-event JSON format, which
// chrome://tracing and Perfetto (ui.perfetto.dev) load directly. Each CPU is
// a thread; a transaction attempt (txn-begin .. txn-commit/txn-abort) is a
// complete "X" span on its CPU's track; a deferral and the later service of
// the deferred request are joined by a flow arrow ("s"/"f" events); all
// other protocol events render as instants.
//
// Cycles are mapped to microseconds at 1000 cycles/µs, purely so the
// timeline zoom levels are usable; the "cycles" arg on every slice carries
// the exact time.
type ChromeWriter struct {
	w      *bufio.Writer
	err    error
	first  bool
	open   map[int]Event        // CPU -> pending txn-begin
	flows  map[flowKey][]uint64 // (cpu,line) -> pending deferral flow IDs, FIFO
	nextID uint64
	seen   map[int]bool // CPUs that appeared (for thread metadata at Close)
}

type flowKey struct {
	cpu  int
	line memsys.Addr
}

// NewChromeWriter wraps w and writes the JSON header; Close writes the
// metadata and closing bracket.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	c := &ChromeWriter{
		w:     bufio.NewWriter(w),
		first: true,
		open:  make(map[int]Event),
		flows: make(map[flowKey][]uint64),
		seen:  make(map[int]bool),
	}
	c.w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	return c
}

// ts converts simulator cycles to trace microseconds.
func ts(at uint64) float64 { return float64(at) / 1000.0 }

// write marshals one trace-event record. json.Marshal sorts map keys, so the
// output is deterministic.
func (c *ChromeWriter) write(rec map[string]any) {
	b, err := json.Marshal(rec)
	if err != nil {
		c.err = err
		return
	}
	if !c.first {
		c.w.WriteByte(',')
	}
	c.first = false
	c.w.Write(b)
	c.w.WriteByte('\n')
}

// Emit implements Sink.
func (c *ChromeWriter) Emit(e Event) {
	c.seen[e.CPU] = true
	at := uint64(e.At)
	switch e.Kind {
	case TxnBegin:
		// A retry begins a new attempt; close any span left dangling (an
		// abort event may be suppressed when the ring was the only sink).
		if b, ok := c.open[e.CPU]; ok {
			c.span(b, e, "restart")
		}
		c.open[e.CPU] = e
	case TxnCommit, TxnAbort:
		outcome := "commit"
		if e.Kind == TxnAbort {
			outcome = "abort"
		}
		if b, ok := c.open[e.CPU]; ok {
			delete(c.open, e.CPU)
			c.span(b, e, outcome)
		} else {
			c.instant(e)
		}
	case Deferral:
		// Start a flow at the deferring owner; the matching DeferService
		// finishes it. Matching is FIFO per (cpu, line) — the deferred
		// queue the owner drains is itself FIFO within a line.
		c.nextID++
		id := c.nextID
		k := flowKey{e.CPU, e.Line}
		c.flows[k] = append(c.flows[k], id)
		c.instant(e)
		c.write(map[string]any{
			"name": "deferral", "cat": "defer", "ph": "s",
			"id": id, "pid": 1, "tid": e.CPU, "ts": ts(at),
		})
	case DeferService:
		c.instant(e)
		k := flowKey{e.CPU, e.Line}
		if ids := c.flows[k]; len(ids) > 0 {
			id := ids[0]
			c.flows[k] = ids[1:]
			c.write(map[string]any{
				"name": "deferral", "cat": "defer", "ph": "f", "bp": "e",
				"id": id, "pid": 1, "tid": e.CPU, "ts": ts(at),
			})
		}
	default:
		c.instant(e)
	}
}

// span writes a complete "X" slice from begin to end on the begin CPU.
func (c *ChromeWriter) span(begin, end Event, outcome string) {
	at := uint64(begin.At)
	args := map[string]any{
		"outcome": outcome,
		"cycles":  uint64(end.At) - at,
	}
	if begin.Info != "" {
		args["lock"] = begin.Info
	}
	if end.Kind == TxnAbort && end.Info != "" {
		args["reason"] = end.Info
	}
	c.write(map[string]any{
		"name": "txn(" + outcome + ")", "cat": "txn", "ph": "X",
		"pid": 1, "tid": begin.CPU,
		"ts": ts(at), "dur": ts(uint64(end.At)) - ts(at),
		"args": args,
	})
}

// instant writes a zero-duration "i" event.
func (c *ChromeWriter) instant(e Event) {
	args := map[string]any{"cycles": uint64(e.At)}
	if e.Line != 0 {
		args["line"] = e.Line.String()
	}
	if e.Info != "" {
		args["info"] = e.Info
	}
	c.write(map[string]any{
		"name": e.Kind.String(), "cat": "protocol", "ph": "i", "s": "t",
		"pid": 1, "tid": e.CPU, "ts": ts(uint64(e.At)),
		"args": args,
	})
}

// Close flushes any dangling spans, writes process/thread metadata so the
// viewer labels tracks, and terminates the JSON document.
func (c *ChromeWriter) Close() error {
	dangling := make([]int, 0, len(c.open))
	for cpu := range c.open {
		dangling = append(dangling, cpu)
	}
	sort.Ints(dangling)
	for _, cpu := range dangling {
		b := c.open[cpu]
		c.span(b, Event{At: b.At, CPU: cpu, Kind: TxnAbort, Info: "run-end"}, "truncated")
	}
	c.write(map[string]any{
		"name": "process_name", "ph": "M", "pid": 1,
		"args": map[string]any{"name": "tlrsim"},
	})
	cpus := make([]int, 0, len(c.seen))
	for cpu := range c.seen {
		cpus = append(cpus, cpu)
	}
	sort.Ints(cpus)
	for _, cpu := range cpus {
		c.write(map[string]any{
			"name": "thread_name", "ph": "M", "pid": 1, "tid": cpu,
			"args": map[string]any{"name": fmt.Sprintf("CPU %d", cpu)},
		})
	}
	c.w.WriteString("]}\n")
	if err := c.w.Flush(); err != nil {
		return err
	}
	return c.err
}
