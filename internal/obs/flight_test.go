package obs

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFlightRecorderKeepsTail(t *testing.T) {
	f := NewRing(4)
	for i := 0; i < 7; i++ {
		f.Emit(Event{Kind: KindWPQDrain, Cycle: int64(i), Scheme: "s"})
	}
	rec := f.Snapshot()
	if len(rec.Events) != 4 || rec.Dropped != 3 || rec.Count != 7 {
		t.Fatalf("snapshot events=%d dropped=%d count=%d, want 4/3/7",
			len(rec.Events), rec.Dropped, rec.Count)
	}
	for i, e := range rec.Events {
		if want := int64(3 + i); e.Cycle != want {
			t.Fatalf("event %d at cycle %d, want %d (oldest-first tail)", i, e.Cycle, want)
		}
	}
	if f.Len() != 4 || f.Dropped() != 3 || f.Count() != 7 {
		t.Fatalf("accessors %d/%d/%d, want 4/3/7", f.Len(), f.Dropped(), f.Count())
	}
}

func TestFlightRecorderDefaultCapacity(t *testing.T) {
	f := NewRing(DefaultFlightEvents)
	for i := 0; i < DefaultFlightEvents+10; i++ {
		f.Emit(Event{Kind: KindPCBFlush, Cycle: int64(i), Scheme: "s"})
	}
	if f.Len() != DefaultFlightEvents || f.Dropped() != 10 {
		t.Fatalf("len=%d dropped=%d, want %d/10", f.Len(), f.Dropped(), DefaultFlightEvents)
	}
}

// TestFlightRecordJSONLRoundTrip pins the dump contract: a snapshot's
// JSONL output validates under ValidateJSONL (the tracecheck schema)
// and decodes back to the identical event sequence.
func TestFlightRecordJSONLRoundTrip(t *testing.T) {
	f := NewRing(16)
	for i := 0; i < 10; i++ {
		f.Emit(Event{
			Kind:   Kind(1 + i%(int(numKinds)-1)),
			Cycle:  int64(100 * i),
			Addr:   int64(64 * i),
			Aux:    int64(i),
			Scheme: "thoth-wtsc",
			Part:   "ctr",
			Detail: fmt.Sprintf("d%d", i),
		})
	}
	rec := f.Snapshot()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateJSONL(bytes.NewReader(buf.Bytes())); err != nil || n != 10 {
		t.Fatalf("dump fails validation: n=%d err=%v", n, err)
	}
	var got []Event
	if _, err := DecodeJSONL(bytes.NewReader(buf.Bytes()), func(e Event) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rec.Events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(rec.Events))
	}
	for i := range got {
		if got[i] != rec.Events[i] {
			t.Fatalf("event %d round-trips to %+v, want %+v", i, got[i], rec.Events[i])
		}
	}
}

// TestFlightRecorderEmitVsSnapshotRace hammers the ring from 8
// emitters while a drainer continuously snapshots: run under -race this
// is the data-race check; the invariants below catch torn accounting.
func TestFlightRecorderEmitVsSnapshotRace(t *testing.T) {
	f := NewRing(64)
	const emitters = 8
	const perEmitter = 2000
	var stop atomic.Bool
	var wg sync.WaitGroup
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for !stop.Load() {
			rec := f.Snapshot()
			if int64(len(rec.Events))+rec.Dropped != rec.Count {
				t.Errorf("torn snapshot: %d events + %d dropped != %d count",
					len(rec.Events), rec.Dropped, rec.Count)
				return
			}
		}
	}()
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				f.Emit(Event{Kind: KindPUBEvict, Cycle: int64(g*perEmitter + i), Scheme: "s"})
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	<-drained
	if f.Count() != emitters*perEmitter {
		t.Fatalf("count %d, want %d", f.Count(), emitters*perEmitter)
	}
}

// TestRingEmitVsDrainRace is the same hammer for the tests-facing Ring.
func TestRingEmitVsDrainRace(t *testing.T) {
	r := NewRing(64)
	const emitters = 8
	const perEmitter = 2000
	var stop atomic.Bool
	var wg sync.WaitGroup
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for !stop.Load() {
			evs := r.Events()
			if int64(len(evs))+r.Dropped() > r.Count() {
				t.Error("drain observed more events than were ever emitted")
				return
			}
		}
	}()
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				r.Emit(Event{Kind: KindCacheEvict, Cycle: int64(g*perEmitter + i), Scheme: "s"})
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	<-drained
	if r.Count() != emitters*perEmitter {
		t.Fatalf("count %d, want %d", r.Count(), emitters*perEmitter)
	}
}
