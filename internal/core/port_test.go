package core

import (
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
)

// TestPortClockAndSpan pins the arrival clamp and the span protocol: an
// idle port jumps to the arrival, a backlogged one charges the wait to
// SpanQueue, a stale span is reset, and the stage cycles sum to
// completion − arrival.
func TestPortClockAndSpan(t *testing.T) {
	p := NewPort(mustNew(t, testConfig(config.ThothWTSC)))
	data := make([]byte, p.BlockSize()+9)
	done, err := p.Write(1000, 40, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 1000 || p.Now() != done {
		t.Fatalf("idle port: done=%d now=%d, want done > arrival 1000 and now == done", done, p.Now())
	}
	span := obs.Span{}
	span.Add(obs.SpanPersist, 12345) // stale charge the port must reset
	arrival := done - 500
	done2, err := p.Write(arrival, 0, data, &span)
	if err != nil {
		t.Fatal(err)
	}
	if got := span.Total(); got != done2-arrival {
		t.Fatalf("stage cycles %d, want completion − arrival = %d", got, done2-arrival)
	}
	if span.Stages[obs.SpanQueue] != 500 {
		t.Fatalf("queue stage %d, want the 500-cycle backlog", span.Stages[obs.SpanQueue])
	}
	if p.Controller().Span() != nil {
		t.Fatal("span left installed after the op")
	}
	if st := p.Stats(); st.Cycles != done2 {
		t.Fatalf("stats Cycles %d, want clock %d", st.Cycles, done2)
	}
}

// TestPortErrors pins the rejected accesses and their sentinels.
func TestPortErrors(t *testing.T) {
	p := NewPort(mustNew(t, testConfig(config.ThothWTSC)))
	buf := make([]byte, 8)
	if _, err := p.Write(0, p.DataSize()-4, buf, nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write past the region: %v, want ErrOutOfRange", err)
	}
	if _, err := p.Read(0, -1, buf, nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative offset: %v, want ErrOutOfRange", err)
	}
	if _, err := p.Read(-1, 0, buf, nil); err == nil {
		t.Fatal("negative arrival accepted")
	}
	if err := p.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(0, 0, buf, nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: %v, want ErrCrashed", err)
	}
}

// TestPortPanicUninstallsSpan tampers a data block so the read half of
// a read-modify-write fails verification and panics: the span must not
// stay installed on the controller for later ops.
func TestPortPanicUninstallsSpan(t *testing.T) {
	c := mustNew(t, testConfig(config.ThothWTSC))
	p := NewPort(c)
	if _, err := p.Write(0, 0, blockOf(c, 0x33), nil); err != nil {
		t.Fatal(err)
	}
	c.Device().WriteBlock(c.Layout().DataBase, blockOf(c, 0x44))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("tampered read-modify-write did not panic")
			}
		}()
		p.Write(0, 1, []byte{1}, &obs.Span{})
	}()
	if c.Span() != nil {
		t.Fatal("panic leaked the span onto the controller")
	}
}
