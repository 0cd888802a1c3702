package obs

import (
	"bufio"
	"io"
)

// DefaultFlightEvents is the capacity of each controller's flight
// recorder (a Ring): enough to cover the metadata traffic of the last
// few thousand ops without measurable steady-state cost.
const DefaultFlightEvents = 4096

// FlightRecord is a frozen Ring snapshot: for a controller's flight
// recorder, the event tail retained at the moment of a crash or
// shutdown.
type FlightRecord struct {
	// Events are the retained events, oldest first.
	Events []Event
	// Dropped is how many older events the ring had overwritten.
	Dropped int64
	// Count is the total events recorded over the ring's lifetime.
	Count int64
}

// WriteJSONL writes the record as a JSONL event stream — the same
// schema JSONL emits, so the dump validates under ValidateJSONL and
// cmd/tracecheck, and replays through DecodeJSONL and
// metrics.FromTracer like any recorded trace.
func (r FlightRecord) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range r.Events {
		if err := writeJSONLine(bw, e); err != nil {
			return err
		}
	}
	return bw.Flush()
}
