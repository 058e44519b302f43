// This file defines the monitor's wire format: the JSONL trace stream a
// campaign exports (csnake -trace-out) and a monitor ingests, one record
// per line. The stream is self-contained -- edges carry fault ids, test
// names, and occurrence evidence inline (no intern tables), so any
// suffix of a stream is still parseable and streams from different
// producers can interleave.
//
// Record types:
//
//	hello   stream preamble: schema version + originating system
//	static  one static ICFG/CFG connector edge (no timestamp, no decay)
//	nest    loop-nest family annotation for one fault
//	score   SimScore annotation for one fault
//	edge    one dynamic causal-edge observation, stamped atMs
//	mark    an experiment boundary (informational)
//
// Parsing is tolerant by design, mirroring the service journal's
// torn-tail discipline: a malformed, truncated, or oversized line is
// counted and skipped, never fatal and never a panic.
package monitor

import (
	"encoding/json"
	"fmt"

	"repro/internal/core/compat"
	"repro/internal/core/fca"
	"repro/internal/faults"
	"repro/internal/trace"
)

// TraceVersion is the trace stream schema version.
const TraceVersion = 1

// Record is one JSONL trace line. T selects the type and which fields
// are meaningful.
type Record struct {
	T string `json:"t"`

	// hello
	Version int    `json:"v,omitempty"`
	System  string `json:"system,omitempty"`

	// edge / static
	Edge *EdgeRecord `json:"edge,omitempty"`
	// AtMS is the edge's virtual timestamp in milliseconds since stream
	// start. The exporter stamps each edge with its record index, so a
	// replayed trace is deterministic; live producers use wall-clock
	// offsets.
	AtMS int64 `json:"atMs,omitempty"`

	// nest / score
	Fault string  `json:"fault,omitempty"`
	Group int     `json:"group,omitempty"`
	Score float64 `json:"score,omitempty"`
}

// EdgeRecord is a self-contained dynamic or static causal edge: the
// schema-v1 graph edge shape with fault ids and the test name inlined
// instead of table indices.
type EdgeRecord struct {
	From      string             `json:"f"`
	To        string             `json:"t"`
	Kind      int                `json:"k"`
	FromClass int                `json:"fc"`
	ToClass   int                `json:"tc"`
	Test      string             `json:"w"`
	FromDelay bool               `json:"fd,omitempty"`
	ToDelay   bool               `json:"td,omitempty"`
	FromOcc   []trace.Occurrence `json:"fo,omitempty"`
	ToOcc     []trace.Occurrence `json:"to,omitempty"`
}

// maxOccRecords bounds the evidence a single line may carry; anything
// past the graph's own merge cap can never be admitted anyway, so
// oversupplied evidence is truncated at parse time rather than trusted.
const maxOccRecords = trace.OccCap

// decodeRecord parses and validates one trace line. It returns an error
// for anything a monitor cannot safely apply; callers count and skip.
func decodeRecord(line []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, err
	}
	switch rec.T {
	case "hello":
		if rec.Version != TraceVersion {
			return rec, fmt.Errorf("monitor: unsupported trace version %d (want %d)", rec.Version, TraceVersion)
		}
	case "static":
		if err := validateEdge(rec.Edge, true); err != nil {
			return rec, err
		}
	case "edge":
		if err := validateEdge(rec.Edge, false); err != nil {
			return rec, err
		}
		if rec.AtMS < 0 {
			return rec, fmt.Errorf("monitor: negative edge timestamp %d", rec.AtMS)
		}
	case "nest", "score":
		if rec.Fault == "" {
			return rec, fmt.Errorf("monitor: %s record without fault", rec.T)
		}
	case "mark":
	case "":
		return rec, fmt.Errorf("monitor: record without type")
	default:
		return rec, fmt.Errorf("monitor: unknown record type %q", rec.T)
	}
	return rec, nil
}

func validateEdge(e *EdgeRecord, static bool) error {
	if e == nil {
		return fmt.Errorf("monitor: edge record without edge")
	}
	if e.From == "" || e.To == "" {
		return fmt.Errorf("monitor: edge with empty endpoint")
	}
	if e.Kind < int(faults.ED) || e.Kind > int(faults.CFG) {
		return fmt.Errorf("monitor: edge kind %d out of range", e.Kind)
	}
	if faults.EdgeKind(e.Kind).Static() != static {
		if static {
			return fmt.Errorf("monitor: dynamic kind %d in static record", e.Kind)
		}
		return fmt.Errorf("monitor: static kind %d in edge record", e.Kind)
	}
	for _, c := range []int{e.FromClass, e.ToClass} {
		if c < int(faults.ClassException) || c > int(faults.ClassDelay) {
			return fmt.Errorf("monitor: edge fault class %d out of range", c)
		}
	}
	return nil
}

// fcaEdge materializes the validated record as an fca.Edge.
func (e *EdgeRecord) fcaEdge() fca.Edge {
	return fca.Edge{
		From: faults.ID(e.From), To: faults.ID(e.To),
		Kind:      faults.EdgeKind(e.Kind),
		FromClass: faults.FaultClass(e.FromClass), ToClass: faults.FaultClass(e.ToClass),
		Test:      e.Test,
		FromState: compat.State{Occ: capOcc(e.FromOcc), DelayFault: e.FromDelay},
		ToState:   compat.State{Occ: capOcc(e.ToOcc), DelayFault: e.ToDelay},
	}
}

// capOcc truncates oversupplied evidence to maxOccRecords.
func capOcc(occ []trace.Occurrence) []trace.Occurrence {
	if len(occ) > maxOccRecords {
		return occ[:maxOccRecords]
	}
	return occ
}

// wireEdge converts an fca.Edge to its record form.
func wireEdge(e fca.Edge) *EdgeRecord {
	return &EdgeRecord{
		From: string(e.From), To: string(e.To),
		Kind:      int(e.Kind),
		FromClass: int(e.FromClass), ToClass: int(e.ToClass),
		Test:      e.Test,
		FromDelay: e.FromState.DelayFault, ToDelay: e.ToState.DelayFault,
		FromOcc: e.FromState.Occ, ToOcc: e.ToState.Occ,
	}
}
