package sim

import (
	"fmt"
	"strings"

	"repro/internal/checkpoint"
)

// EventKind labels a trace event.
type EventKind int

// Trace event kinds.
const (
	// EvCheckpoint: a checkpoint operation completed (Checkpoint holds
	// its kind).
	EvCheckpoint EventKind = iota
	// EvFault: a transient fault struck one replica.
	EvFault
	// EvRollback: an error was detected and state restored (Value holds
	// the task progress, in cycles, rolled back to).
	EvRollback
	// EvSpeed: the processor changed speed (Value holds the new
	// frequency).
	EvSpeed
	// EvComplete: the task finished all work.
	EvComplete
	// EvFail: the run was abandoned (deadline/infeasibility).
	EvFail
	// EvMissedDetect: a comparison failed to flag present divergence
	// (imperfect-FT detection coverage miss).
	EvMissedDetect
	// EvBadStore: a recovery attempted to restore a stored checkpoint
	// and found it corrupted (Value holds the image's work position);
	// the rollback cascade continues one store older.
	EvBadStore
	// EvRestart: a recovery ran out of usable stored states (or cascade
	// budget) and restarted the task from the beginning.
	EvRestart
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvCheckpoint:
		return "checkpoint"
	case EvFault:
		return "fault"
	case EvRollback:
		return "rollback"
	case EvSpeed:
		return "speed"
	case EvComplete:
		return "complete"
	case EvFail:
		return "fail"
	case EvMissedDetect:
		return "missed-detect"
	case EvBadStore:
		return "bad-store"
	case EvRestart:
		return "restart"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of an execution trace.
type Event struct {
	Kind       EventKind
	Time       float64         // wall-clock time of the event
	Checkpoint checkpoint.Kind // set for EvCheckpoint
	Value      float64         // rollback target / new frequency
}

// Trace records the timeline of one simulated execution. It reproduces,
// in machine-checkable form, the execution diagrams of paper Fig. 1
// (SCP scheme) and Fig. 5 (CCP scheme).
type Trace struct {
	Events []Event
}

func (tr *Trace) add(ev Event) { tr.Events = append(tr.Events, ev) }

// Reset clears the trace for reuse across runs.
func (tr *Trace) Reset() { tr.Events = tr.Events[:0] }

// Count returns how many events of the given kind were recorded.
func (tr *Trace) Count(kind EventKind) int {
	n := 0
	for _, ev := range tr.Events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// CheckpointCount returns how many checkpoints of the given kind were
// recorded.
func (tr *Trace) CheckpointCount(kind checkpoint.Kind) int {
	n := 0
	for _, ev := range tr.Events {
		if ev.Kind == EvCheckpoint && ev.Checkpoint == kind {
			n++
		}
	}
	return n
}

// String renders the trace one event per line, for cmd/chksim -trace.
func (tr *Trace) String() string {
	var b strings.Builder
	for _, ev := range tr.Events {
		switch ev.Kind {
		case EvCheckpoint:
			fmt.Fprintf(&b, "%12.2f  checkpoint %s\n", ev.Time, ev.Checkpoint)
		case EvFault:
			fmt.Fprintf(&b, "%12.2f  fault\n", ev.Time)
		case EvRollback:
			fmt.Fprintf(&b, "%12.2f  rollback to work=%.2f\n", ev.Time, ev.Value)
		case EvSpeed:
			fmt.Fprintf(&b, "%12.2f  speed -> f=%.2g\n", ev.Time, ev.Value)
		case EvComplete:
			fmt.Fprintf(&b, "%12.2f  complete\n", ev.Time)
		case EvFail:
			fmt.Fprintf(&b, "%12.2f  FAIL\n", ev.Time)
		case EvMissedDetect:
			fmt.Fprintf(&b, "%12.2f  missed detection\n", ev.Time)
		case EvBadStore:
			fmt.Fprintf(&b, "%12.2f  corrupt store at work=%.2f\n", ev.Time, ev.Value)
		case EvRestart:
			fmt.Fprintf(&b, "%12.2f  RESTART from beginning\n", ev.Time)
		}
	}
	return b.String()
}

// Timeline renders the trace as an ASCII band of the given width — the
// textual analogue of the paper's Fig. 1 / Fig. 5 execution diagrams.
// Symbols: '-' execution, 's' SCP, 'c' CCP, 'C' CSCP, 'x' fault,
// '<' rollback, '^' speed change, '!' failure, '$' completion,
// '?' missed detection, '%' corrupt store found, '@' restart from
// beginning. When several events share a column, the most significant
// one wins (failure > completion > restart > rollback > corrupt store >
// missed detection > fault > checkpoint > speed).
func (tr *Trace) Timeline(width int) string {
	if width < 10 {
		width = 10
	}
	if len(tr.Events) == 0 {
		return strings.Repeat("-", width)
	}
	end := tr.Events[len(tr.Events)-1].Time
	if end <= 0 {
		end = 1
	}
	band := []byte(strings.Repeat("-", width))
	rank := func(b byte) int {
		switch b {
		case '!':
			return 10
		case '$':
			return 9
		case '@':
			return 8
		case '<':
			return 7
		case '%':
			return 6
		case '?':
			return 5
		case 'x':
			return 4
		case 'C':
			return 3
		case 'c', 's':
			return 2
		case '^':
			return 1
		default:
			return 0
		}
	}
	put := func(t float64, sym byte) {
		col := int(t / end * float64(width-1))
		if col < 0 {
			col = 0
		}
		if col >= width {
			col = width - 1
		}
		if rank(sym) > rank(band[col]) {
			band[col] = sym
		}
	}
	for _, ev := range tr.Events {
		switch ev.Kind {
		case EvCheckpoint:
			switch ev.Checkpoint {
			case checkpoint.CSCP:
				put(ev.Time, 'C')
			case checkpoint.SCP:
				put(ev.Time, 's')
			default:
				put(ev.Time, 'c')
			}
		case EvFault:
			put(ev.Time, 'x')
		case EvRollback:
			put(ev.Time, '<')
		case EvSpeed:
			put(ev.Time, '^')
		case EvComplete:
			put(ev.Time, '$')
		case EvFail:
			put(ev.Time, '!')
		case EvMissedDetect:
			put(ev.Time, '?')
		case EvBadStore:
			put(ev.Time, '%')
		case EvRestart:
			put(ev.Time, '@')
		}
	}
	return string(band)
}
