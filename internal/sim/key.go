package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/trace"
)

// This file is the content-addressing side of the Params schema: Key()
// hashes the declarative fields into a canonical digest so that two
// parameter sets which provably configure the identical simulation collide,
// and any knob that can move a Result bit separates. Runs are deterministic
// (the golden and invariance tests of internal/sim lock this), so
// engine-name + Params.Key() fully addresses a sim.Result — which is what
// lets internal/service serve repeated submissions from a cache instead of
// simulating again.

// keyDefaults are the engine defaults the canonical form folds in, one per
// documented "0/empty means X" rule on Params. Each constant is pinned to
// the layer that owns the default by a test in key_test.go, so a default
// drifting there breaks the build here instead of silently splitting (or
// worse, falsely merging) cache keys.
const (
	keyDefaultWorkload  = "Linux-2.4" // Params.workloadSpec
	keyDefaultPredictor = "gshare"    // tm.DefaultConfig().Predictor
	keyDefaultIssue     = 2           // tm.DefaultConfig().IssueWidth
	keyDefaultLink      = "drc"       // Params.link
	keyDefaultPollBBs   = 2           // core.DefaultConfig().PollEveryBBs
	keyDefaultRollback  = "journal"   // fm's default recovery engine
	keyDefaultCkptEvery = 64          // fm.newCheckpointEngine
	keyDefaultCores     = 1           // Params.Cores: 0 means single-core
	keyDefaultHopLat    = 4           // cache.DefaultInterconnectLatency
	keyDefaultDiskLat   = 200         // workload.DiskLatency
)

// canonicalParams is the shape Key hashes: every Params field that can
// change a Result, with defaults resolved and result-invariant knobs
// dropped. The JSON encoding of this struct (fixed field order, no
// omitempty) is the canonical byte string.
//
// Deliberately absent:
//
//   - ICacheEntries: the FM predecode cache is bit-invariant at every size
//     including disabled (TestFastEngineICacheInvariance), so two
//     submissions differing only in cache size are the same simulation.
//   - SuperblockLen: the superblock fast path is likewise bit-invariant at
//     every length including disabled
//     (TestFastEngineSuperblockInvariance).
//   - Telemetry: instrumentation reads the run, it never steers it.
type canonicalParams struct {
	Version         int    `json:"v"` // bump when canonicalization rules change
	Workload        string `json:"workload"`
	ProgramDigest   string `json:"program_digest,omitempty"`
	Predictor       string `json:"predictor"`
	IssueWidth      int    `json:"issue_width"`
	Link            string `json:"link"`
	PollEveryBBs    int    `json:"poll_every_bbs"`
	BPP             bool   `json:"bpp"`
	MaxInstructions uint64 `json:"max_instructions"`
	TraceChunk      int    `json:"trace_chunk"`
	Rollback        string `json:"rollback"`
	CheckpointEvery int    `json:"checkpoint_every"`
	Uncompressed    bool   `json:"uncompressed"`
	FutureMicroarch bool   `json:"future_microarch"`
	Cores           int    `json:"cores"`
	HopLatency      int    `json:"hop_latency"`
	DiskLatency     int    `json:"disk_latency"`
}

// canonical resolves p into the form Key hashes.
func (p Params) canonical() canonicalParams {
	c := canonicalParams{
		Version:         3, // v3: boot-environment disk_latency
		Workload:        p.Workload,
		Predictor:       p.Predictor,
		IssueWidth:      p.IssueWidth,
		Link:            p.Link,
		PollEveryBBs:    p.PollEveryBBs,
		BPP:             p.BPP,
		MaxInstructions: p.MaxInstructions,
		TraceChunk:      p.TraceChunk,
		Rollback:        p.Rollback,
		CheckpointEvery: p.CheckpointInterval,
		Uncompressed:    p.UncompressedTrace,
		FutureMicroarch: p.FutureMicroarch,
		Cores:           p.Cores,
		HopLatency:      p.InterconnectLatency,
		DiskLatency:     p.DiskLatency,
	}
	if p.Program != nil {
		// A raw image replaces the named workload entirely; only the parts
		// the FM loads (base, entry, code bytes) reach the digest — symbol
		// tables are assembler metadata.
		h := sha256.New()
		binary.Write(h, binary.LittleEndian, uint64(p.Program.Base))
		binary.Write(h, binary.LittleEndian, uint64(p.Program.Entry))
		h.Write(p.Program.Code)
		c.Workload = ""
		c.ProgramDigest = hex.EncodeToString(h.Sum(nil))
	} else if c.Workload == "" {
		c.Workload = keyDefaultWorkload
	}
	if c.Predictor == "" {
		c.Predictor = keyDefaultPredictor
	}
	if c.IssueWidth == 0 {
		c.IssueWidth = keyDefaultIssue
	}
	if c.Link == "" {
		c.Link = keyDefaultLink
	}
	if c.PollEveryBBs == 0 {
		c.PollEveryBBs = keyDefaultPollBBs
	}
	if c.TraceChunk == 0 {
		c.TraceChunk = trace.DefaultChunk
	}
	if c.Rollback == "" {
		c.Rollback = keyDefaultRollback
	}
	switch {
	case c.Rollback != "checkpoint":
		// The spacing knob only exists under checkpoint recovery; under the
		// journal it is dead state and must not split keys.
		c.CheckpointEvery = 0
	case c.CheckpointEvery == 0:
		c.CheckpointEvery = keyDefaultCkptEvery
	}
	if c.Cores == 0 {
		c.Cores = keyDefaultCores
	}
	switch {
	case c.Cores == 1:
		// A single-core target has no interconnect; the hop knob is dead
		// state there and must not split keys.
		c.HopLatency = 0
	case c.HopLatency == 0:
		c.HopLatency = keyDefaultHopLat
	}
	switch {
	case c.ProgramDigest != "":
		// Bare-metal programs boot no devices; the disk knob is dead state
		// there and must not split keys.
		c.DiskLatency = 0
	case c.DiskLatency == 0:
		c.DiskLatency = keyDefaultDiskLat
	}
	return c
}

// Key returns the canonical content address of p: a SHA-256 hex digest over
// the resolved parameter set. Two Params that configure the identical
// simulation — spelled with explicit defaults or left zero, differing only
// in result-invariant knobs (ICacheEntries) or instrumentation (Telemetry)
// — return the same key; changing any result-affecting knob changes it.
func (p Params) Key() string {
	raw, err := json.Marshal(p.canonical())
	if err != nil {
		// canonicalParams is a flat struct of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("sim: canonical params encoding: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// DecodeParams is the strict JSON boundary for Params: unknown fields and
// trailing data are rejected, so a typo'd knob in an API request fails loud
// instead of silently running the default simulation. The zero-length input
// decodes to the zero Params (engine defaults).
func DecodeParams(data []byte) (Params, error) {
	var p Params
	if len(bytes.TrimSpace(data)) == 0 {
		return p, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Params{}, fmt.Errorf("sim: decode params: %w", err)
	}
	if dec.More() {
		return Params{}, fmt.Errorf("sim: decode params: trailing data after JSON object")
	}
	return p, nil
}

// DecodeSweep is DecodeParams for a Sweep spec: one strictly-decoded JSON
// object (unknown fields anywhere — including inside Base or a Variant —
// are rejected).
func DecodeSweep(r io.Reader) (Sweep, error) {
	var s Sweep
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Sweep{}, fmt.Errorf("sim: decode sweep: %w", err)
	}
	if dec.More() {
		return Sweep{}, fmt.Errorf("sim: decode sweep: trailing data after JSON object")
	}
	return s, nil
}
