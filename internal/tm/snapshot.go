package tm

import (
	"fmt"
	"strings"
)

// Snapshot is a Figure 1-style view of the pipeline at the current cycle:
// which instruction numbers sit in each structure. It exists for the
// paper's transparency claim — "providing visibility into the simulated
// system" — and powers examples/pipeline.
type Snapshot struct {
	Cycle      uint64
	FetchIN    uint64   // next IN fetch will request from the trace buffer
	FetchQ     []uint64 // INs between fetch and decode
	DecodeBuf  int      // µops of the instruction currently cracking
	RenameQ    []uint64 // INs of µops between decode and rename
	ROB        []ROBSlot
	Recovering bool
	DrainFor   uint64 // IN being waited on when recovering
}

// ROBSlot describes one in-flight µop.
type ROBSlot struct {
	IN     uint64
	Kind   string
	Issued bool
	Done   bool
}

// Snapshot captures the current pipeline state.
func (t *TM) Snapshot() (s Snapshot) {
	t.snapshotInto(&s)
	return s
}

// snapshotInto captures the current pipeline state into s, reusing its
// slices: the agreement tests compare one every cycle.
func (t *TM) snapshotInto(s *Snapshot) {
	*s = Snapshot{Cycle: t.cycle, FetchIN: t.fetchIN, DecodeBuf: int(t.decLeft), Recovering: t.recovering,
		DrainFor: t.recoverIN, FetchQ: s.FetchQ[:0], RenameQ: s.RenameQ[:0], ROB: s.ROB[:0]}
	in := func(u *uop) uint64 { return t.instr(u.ins).e.IN }
	for i := 0; i < t.fetchQ.Len(); i++ {
		s.FetchQ = append(s.FetchQ, t.instr(t.fetchQ.at(i).v).e.IN)
	}
	for seq := t.robTail; seq < t.nextUop; seq++ {
		s.RenameQ = append(s.RenameQ, in(t.uop(seq)))
	}
	for seq := t.robHead; seq < t.robTail; seq++ {
		u := t.uop(seq)
		s.ROB = append(s.ROB, ROBSlot{IN: in(u), Kind: u.kind.String(), Issued: u.issued, Done: u.doneBy(t.cycle)})
	}
}

func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "T=%-5d fetch@#%d", s.Cycle, s.FetchIN)
	if s.Recovering {
		fmt.Fprintf(&b, " [drain until #%d commits]", s.DrainFor)
	}
	fmt.Fprintf(&b, "\n  fetchQ:  %s\n", ins(s.FetchQ))
	fmt.Fprintf(&b, "  renameQ: %s\n", ins(s.RenameQ))
	fmt.Fprintf(&b, "  ROB:     ")
	for _, r := range s.ROB {
		state := "wait"
		if r.Done {
			state = "done"
		} else if r.Issued {
			state = "exec"
		}
		fmt.Fprintf(&b, "[#%d %s %s] ", r.IN, r.Kind, state)
	}
	b.WriteString("\n")
	return b.String()
}

func ins(v []uint64) string {
	if len(v) == 0 {
		return "(empty)"
	}
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("#%d", x)
	}
	return strings.Join(parts, " ")
}
