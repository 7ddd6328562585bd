package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cgct/internal/coherence"
	"cgct/internal/config"
	"cgct/internal/event"
)

// violator raises a coherence invariant violation from an event, as the
// DebugChecks machinery would.
type violator struct{}

func (violator) HandleEvent(now event.Cycle, _ uint8, _ uint32, _ uint64) {
	coherence.Violate(coherence.InvariantError{
		Check: "line-owners", Cycle: uint64(now), Line: 0x40,
		States: "p0=M p1=M", Detail: "2 owners",
	})
}

// scheduleViolation arms a system so that the very first event raises a
// coherence invariant violation.
func scheduleViolation(s *System) {
	s.queue.Schedule(0, violator{}, 0, 0, 0)
}

// bugPanicker panics from an event with a value that is not an invariant
// violation.
type bugPanicker struct{}

func (bugPanicker) HandleEvent(event.Cycle, uint8, uint32, uint64) { panic("unrelated bug") }

func TestRunContextConvertsViolationToError(t *testing.T) {
	cfg := config.Default()
	s := MustNew(cfg, testWorkload(t, "ocean", 4, 1_000, 3), 3)
	scheduleViolation(s)
	run, err := s.RunContext(context.Background())
	if err == nil {
		t.Fatal("RunContext returned nil error despite an invariant violation")
	}
	if run == nil {
		t.Fatal("RunContext returned nil stats")
	}
	var ie *coherence.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("error %T (%v), want *coherence.InvariantError", err, err)
	}
	if ie.Check != "line-owners" || ie.Line != 0x40 {
		t.Fatalf("fields not preserved: %+v", ie)
	}
	if !strings.Contains(err.Error(), "line-owners") {
		t.Errorf("error message %q does not name the check", err.Error())
	}
}

func TestRunContextPanicOnViolationMode(t *testing.T) {
	cfg := config.Default()
	s := MustNew(cfg, testWorkload(t, "ocean", 4, 1_000, 3), 3)
	s.PanicOnViolation = true
	scheduleViolation(s)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("RunContext did not re-panic with PanicOnViolation set")
		}
		if _, ok := r.(*coherence.InvariantError); !ok {
			t.Fatalf("panic value %T, want *coherence.InvariantError", r)
		}
	}()
	_, _ = s.RunContext(context.Background())
}

func TestRunContextOtherPanicsPropagate(t *testing.T) {
	cfg := config.Default()
	s := MustNew(cfg, testWorkload(t, "ocean", 4, 1_000, 3), 3)
	s.queue.Schedule(0, bugPanicker{}, 0, 0, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("RunContext swallowed a non-invariant panic")
		}
		if r != "unrelated bug" {
			t.Fatalf("panic value %v, want the original", r)
		}
	}()
	_, _ = s.RunContext(context.Background())
}
