package sim

import "repro/internal/snap"

// This file is the warm-start side of the content-addressing scheme. A
// boot is the expensive shared prefix of every sweep point that differs
// only in its instruction cap: the FAST engines capture the coupled state
// at the first quiescent boundary after boot completion (core.Sim /
// core.Multicore snapshots) and later runs resume from it, skipping the
// boot instructions entirely. Determinism makes this safe — a resumed run
// is bit-identical to the uninterrupted one (locked by the warm-start
// goldens and experiments.TestStudyInvariance's snapshot rows) — and
// SnapshotPrefix makes it addressable: a second key that drops exactly the
// field a boot cannot depend on.

// Snapshot is one serialized warm-start artifact: the engine-level wrapper
// around a core snapshot blob, carrying the prefix key it serves and the
// committed-instruction count it was captured at.
type Snapshot struct {
	// Prefix is Params.SnapshotPrefix() of every parameter set this
	// snapshot can seed.
	Prefix string
	// IN is the committed-instruction count at capture; a run whose
	// MaxInstructions is at or below it must run cold.
	IN uint64
	// Blob is the core.Sim (single-core) or core.Multicore (Cores > 1)
	// snapshot encoding.
	Blob []byte
}

// snapshotArtifactV versions the artifact's State walk, independently of the
// core blob's own layer versions.
const snapshotArtifactV = 1

// State walks the artifact: the one field list Encode and DecodeSnapshot
// share.
func (s *Snapshot) State(c *snap.Codec) {
	c.Version("snapshot artifact", snapshotArtifactV)
	c.U64(&s.IN)
	c.String(&s.Prefix)
	c.Bytes(&s.Blob)
}

// Encode serializes the artifact for a blob store.
func (s Snapshot) Encode() []byte { return snap.Marshal(&s) }

// DecodeSnapshot rejects truncated or corrupt artifacts without panicking;
// the embedded core blob is validated later, layer by layer, at restore.
func DecodeSnapshot(raw []byte) (Snapshot, error) {
	var s Snapshot
	if err := snap.Unmarshal(raw, &s); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

// SnapshotStore is the warm-start tier the FAST engines talk to.
// GetSnapshot resolves a prefix key; PutSnapshot is called at most once
// per run, from the capture hook, and is best-effort (a dropped snapshot
// only costs a future cold boot). Implementations must be safe for
// concurrent use. internal/service implements it over the same disk
// store that persists results, which is what makes the tier cluster-wide.
type SnapshotStore interface {
	GetSnapshot(prefix string) (Snapshot, bool)
	PutSnapshot(s Snapshot)
}

// SnapshotPrefix is the second content address of p: Key with the
// instruction cap dropped. Two sweep points that differ only in
// MaxInstructions boot identically, so they share a prefix key and one
// captured snapshot serves both — the cap is carried by the artifact
// (Snapshot.IN) and checked at resume time instead. Every other
// result-affecting knob separates, exactly as in Key.
func (p Params) SnapshotPrefix() string {
	p = p.Resolved()
	p.MaxInstructions = 0
	return p.address("snapshot-prefix")
}

// WarmStarted is implemented by engines that can resume from a snapshot
// store; ResumedFrom reports the committed-instruction count the run was
// resumed at (ok=false when the run booted cold).
type WarmStarted interface {
	ResumedFrom() (in uint64, ok bool)
}
